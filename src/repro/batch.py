"""Batched parallel query driver (host-side throughput harness).

The paper evaluates BOSS on query *streams*, not single queries: the
throughput model charges each query's pipelined latency against a pool
of cores. This module is the host-side analogue for the simulator
itself — it runs a batch of query expressions through
``target.search(expression, k)``, in one process or (opt-in) split
over forked worker processes, and reports wall-clock throughput, while
keeping every functional and modeled output bit-identical to running
the same queries serially.

Workers split *whole queries* for every target alike — an engine, a
session or a cluster root. Each ``search()`` call builds its own
counters and cursors, so queries are independent; a cluster's fan-out
over its shards (plan, resilient leaf execution, root merge) is
:meth:`repro.cluster.root.SearchCluster.search` and nothing here
repeats it.

With ``workers`` = W > 1, query ``i`` belongs to share ``i mod W``.
The calling process runs share 0 itself. Every other share runs in a
child forked for this batch alone, on its copy-on-write image of the
target as it is at the call, and pickles one ``(index, outcome)`` per
query back through a pipe once its share is done. No process outlives
the call, so a live or rebalanced target is never served from a stale
copy. Worker threads were the earlier design; under the interpreter
lock two of them drained a batch no faster than one
(``docs/performance-model.md``).

What a child does to its copy stays in the child: its decoded-block
caches warm only the child. So the batch runs in the calling process
alone wherever a forked share would lose state that decides results or
records — inside an enabled observer scope (or under a session's own
observer), inside an open :func:`~repro.core.engine.recording_fetches`
scope, on a target whose ``carries_search_state`` is true (a fault
wrapper's per-query attempt counts and statistics), and where
:func:`os.fork` does not exist.
"""

from __future__ import annotations

import os
import pickle
import signal
from time import perf_counter
from typing import (
    Dict, Iterator, List, NoReturn, Optional, Sequence, Tuple, Union,
)

from repro.core.engine import fetches_recorded
from repro.core.query import QueryNode
from repro.errors import BatchWorkerError, ConfigurationError
from repro.observability.observer import NULL_OBSERVER, current_observer


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sequence.

    Empty samples yield 0.0 (same guard as ``queries_per_second``) so a
    report with no per-query measurements renders instead of raising.
    """
    n = len(sorted_values)
    if n == 0:
        return 0.0
    index = max(0, min(n - 1, int(q * n + 0.999999) - 1))
    return sorted_values[index]


class BatchReport:
    """Wall-clock statistics of one batch run.

    All times are *host* wall-clock seconds — deliberately distinct
    from the simulator's modeled seconds (see
    ``docs/performance-model.md``). A ``per_query_seconds`` entry is
    the wall time of one ``target.search()`` call, whatever the target,
    measured in the process that ran the query.
    """

    __slots__ = ("num_queries", "workers", "wall_seconds",
                 "per_query_seconds", "queries_degraded")

    def __init__(self, num_queries: int, workers: int,
                 wall_seconds: float,
                 per_query_seconds: List[float],
                 queries_degraded: int = 0) -> None:
        self.num_queries = num_queries
        self.workers = workers
        self.wall_seconds = wall_seconds
        self.per_query_seconds = per_query_seconds
        #: Queries whose result reports ``degraded`` (a cluster merge
        #: that skipped a failed shard).
        self.queries_degraded = queries_degraded

    @property
    def queries_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.num_queries / self.wall_seconds

    @property
    def p50_seconds(self) -> float:
        return percentile(sorted(self.per_query_seconds), 0.50)

    @property
    def p95_seconds(self) -> float:
        return percentile(sorted(self.per_query_seconds), 0.95)

    @property
    def p99_seconds(self) -> float:
        return percentile(sorted(self.per_query_seconds), 0.99)

    @property
    def degraded_fraction(self) -> float:
        if self.num_queries <= 0:
            return 0.0
        return self.queries_degraded / self.num_queries

    def to_dict(self) -> dict:
        return {
            "num_queries": self.num_queries,
            "workers": self.workers,
            "wall_seconds": self.wall_seconds,
            "queries_per_second": self.queries_per_second,
            "p50_seconds": self.p50_seconds,
            "p95_seconds": self.p95_seconds,
            "p99_seconds": self.p99_seconds,
            "queries_degraded": self.queries_degraded,
            "degraded_fraction": self.degraded_fraction,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<BatchReport queries={self.num_queries} "
            f"workers={self.workers} "
            f"qps={self.queries_per_second:.1f}>"
        )


class BatchResult:
    """Per-query results (in input order) plus the batch report."""

    __slots__ = ("results", "report")

    def __init__(self, results: list, report: BatchReport) -> None:
        self.results = results
        self.report = report

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index):
        return self.results[index]


#: One query's outcome: its result and wall seconds, or its exception.
Outcome = Union[Tuple[object, float], Exception]


def run_query_batch(target, expressions: Sequence[Union[str, QueryNode]],
                    k: Optional[int] = None,
                    workers: Optional[int] = None) -> BatchResult:
    """Execute a batch of queries on ``target``, serially by default.

    ``workers=None`` is one worker. An explicit ``workers`` is honoured,
    bounded by the batch size: the extra workers are processes forked
    for this batch (see the module docstring for when the batch stays
    in one process instead).

    ``target`` is anything with ``search(expression, k)`` — an engine,
    a session or a :class:`~repro.cluster.root.SearchCluster`; ``k=None``
    is passed through and means the target's default. Results come back
    in input order and are bit-identical to serial execution. A failing
    query aborts the batch with the target's own exception — the one
    with the lowest query index, which is the one a serial run raises
    (for a strict-policy cluster, the
    :class:`~repro.errors.LeafExecutionError` naming query and shard).
    A forked worker that dies without reporting its whole share raises
    :class:`~repro.errors.BatchWorkerError`.
    """
    expressions = list(expressions)
    if not expressions:
        raise ConfigurationError("query batch is empty")
    if workers is not None and workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if (workers is None or not hasattr(os, "fork")
            or current_observer().enabled
            or getattr(target, "observer", NULL_OBSERVER).enabled
            or getattr(target, "carries_search_state", False)
            or fetches_recorded()):
        workers = 1
    workers = min(workers, len(expressions))

    wall_start = perf_counter()
    if workers == 1:
        outcomes = dict(_run_share(target, expressions, k, 0, 1))
    else:
        outcomes = _run_forked(target, expressions, k, workers)
    wall = perf_counter() - wall_start
    failure = _first_failure(outcomes)
    if failure is not None:
        raise outcomes[failure]
    timed = [outcomes[index] for index in range(len(expressions))]
    results = [result for result, _ in timed]
    report = BatchReport(
        num_queries=len(expressions), workers=workers, wall_seconds=wall,
        per_query_seconds=[seconds for _, seconds in timed],
        queries_degraded=sum(
            1 for result in results if getattr(result, "degraded", False)
        ),
    )
    return BatchResult(results, report)


def _run_share(target, expressions: List, k: Optional[int], share: int,
               workers: int) -> Iterator[Tuple[int, Outcome]]:
    """Queries ``share``, ``share + workers``, ... in order, each as
    ``(index, outcome)``; the first query that fails is the last."""
    for index in range(share, len(expressions), workers):
        start = perf_counter()
        try:
            result = target.search(expressions[index], k=k)
        except Exception as error:
            yield index, error
            return
        yield index, (result, perf_counter() - start)


def _first_failure(outcomes: Dict[int, Outcome]) -> Optional[int]:
    return min((index for index, outcome in outcomes.items()
                if isinstance(outcome, Exception)), default=None)


def _run_forked(target, expressions: List, k: Optional[int],
                workers: int) -> Dict[int, Outcome]:
    """Shares 1.. in forked children, share 0 here; every child is
    reaped before this returns or raises."""
    children: Dict[int, tuple] = {}  # share -> (pid, read end)
    try:
        for share in range(1, workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child(target, expressions, k, share, workers, write_fd)
            os.close(write_fd)
            children[share] = (pid, os.fdopen(read_fd, "rb"))
        outcomes = dict(_run_share(target, expressions, k, 0, workers))
        for share in sorted(children):
            failure = _first_failure(outcomes)
            if failure is not None and failure < share:
                # Every query of this share comes after that failure.
                continue
            pid, pipe = children[share]
            reports = _read_reports(pipe)
            pipe.close()
            _, status = os.waitpid(pid, 0)
            del children[share]
            expected = range(share, len(expressions), workers)
            last = reports.get(max(reports, default=-1))
            if len(reports) < len(expected) and not isinstance(
                    last, Exception):
                raise BatchWorkerError(
                    f"batch worker for share {share} of {workers} "
                    f"(pid {pid}) exited with status "
                    f"{os.waitstatus_to_exitcode(status)} after reporting "
                    f"{len(reports)} of its {len(expected)} queries"
                )
            outcomes.update(reports)
        return outcomes
    finally:
        for pid, pipe in children.values():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _child(target, expressions: List, k: Optional[int], share: int,
           workers: int, write_fd: int) -> NoReturn:
    """A forked worker: run one share, send its reports, exit."""
    status = 1
    try:
        # One pickle per query, not one for the share: the parent's
        # unpickler then never holds a memo of the whole share.
        buffer = bytearray()
        for index, outcome in _run_share(target, expressions, k, share,
                                         workers):
            buffer += _report(index, outcome, share)
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(buffer)
        status = 0
    finally:
        # Never return into the caller's stack or run its exit handlers.
        os._exit(status)


def _report(index: int, outcome: Outcome, share: int) -> bytes:
    """One query's pickled ``(index, outcome)``. An outcome that cannot
    cross the process boundary becomes a :class:`BatchWorkerError`."""
    try:
        record = pickle.dumps((index, outcome), pickle.HIGHEST_PROTOCOL)
        if isinstance(outcome, Exception):
            pickle.loads(record)  # an exception must also rebuild
        return record
    except Exception as error:
        return pickle.dumps((index, BatchWorkerError(
            f"batch worker for share {share}: query {index}'s outcome "
            f"({type(outcome).__name__}) cannot be sent: {error!r}"
        )), pickle.HIGHEST_PROTOCOL)


def _read_reports(pipe) -> Dict[int, Outcome]:
    """A child's reports, one pickle at a time, up to end of stream (or
    a record cut short by the child's death)."""
    reports: Dict[int, Outcome] = {}
    while True:
        try:
            index, outcome = pickle.load(pipe)
        except (EOFError, pickle.UnpicklingError):
            return reports
        reports[index] = outcome
