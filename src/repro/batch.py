"""Batched parallel query driver (host-side throughput harness).

The paper evaluates BOSS on query *streams*, not single queries: the
throughput model charges each query's pipelined latency against a pool
of cores. This module is the host-side analogue for the simulator
itself — it runs a batch of query expressions through
``target.search(expression, k)``, serially or (opt-in) on a
worker-thread pool, and reports wall-clock throughput, while keeping
every functional and modeled output bit-identical to running the same
queries serially.

The pool parallelises *whole queries* for every target alike — an
engine, a session or a cluster root. Each ``search()`` call builds its
own counters and cursors, so queries are independent; a cluster's
fan-out over its shards (plan, resilient leaf execution, root merge)
is :meth:`repro.cluster.root.SearchCluster.search` and nothing here
repeats it.

Determinism with observability: pool threads run outside the caller's
observer scope, so while it (or a target session's own observer) is
enabled the driver drops to one worker and records in serial order.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from time import perf_counter
from typing import List, Optional, Sequence, Union

from repro.core.query import QueryNode
from repro.errors import ConfigurationError
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
    the wall time of one ``target.search()`` call, whatever the target;
    with more than one worker it includes the time the call spent
    waiting for the interpreter lock while other workers ran.
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


def run_query_batch(target, expressions: Sequence[Union[str, QueryNode]],
                    k: Optional[int] = None,
                    workers: Optional[int] = None) -> BatchResult:
    """Execute a batch of queries on ``target``, serially by default.

    ``workers=None`` is one worker: the simulator is bound by the
    interpreter lock, and a pool drains a batch measurably *slower*
    than one thread (``docs/performance-model.md``), so a pool is
    opt-in — an explicit ``workers`` is honoured exactly.

    ``target`` is anything with ``search(expression, k)`` — an engine,
    a session or a :class:`~repro.cluster.root.SearchCluster`; ``k=None``
    is passed through and means the target's default. Results come back
    in input order and are bit-identical to serial execution. The first
    query to fail aborts the batch with the target's own exception (for
    a strict-policy cluster, the
    :class:`~repro.errors.LeafExecutionError` naming query and shard).
    """
    expressions = list(expressions)
    if not expressions:
        raise ConfigurationError("query batch is empty")
    if workers is not None and workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if (workers is None or current_observer().enabled
            or getattr(target, "observer", NULL_OBSERVER).enabled):
        workers = 1

    def _one(expression):
        start = perf_counter()
        result = target.search(expression, k=k)
        return result, perf_counter() - start

    wall_start = perf_counter()
    if workers == 1:
        timed = [_one(expression) for expression in expressions]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_one, e) for e in expressions]
            try:
                timed = [f.result() for f in futures]
            except BaseException:
                # Don't abandon queued work on a mid-collection failure.
                for future in futures:
                    future.cancel()
                raise
    wall = perf_counter() - wall_start
    results = [result for result, _ in timed]
    report = BatchReport(
        num_queries=len(expressions), workers=workers, wall_seconds=wall,
        per_query_seconds=[seconds for _, seconds in timed],
        queries_degraded=sum(
            1 for result in results if getattr(result, "degraded", False)
        ),
    )
    return BatchResult(results, report)
