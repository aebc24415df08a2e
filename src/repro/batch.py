"""Batched parallel query driver (host-side throughput harness).

The paper evaluates BOSS on query *streams*, not single queries: the
throughput model charges each query's pipelined latency against a pool
of cores. This module is the host-side analogue for the simulator
itself — it executes a batch of query expressions concurrently on a
worker-thread pool and reports wall-clock throughput, while keeping
every functional and modeled output bit-identical to running the same
queries serially:

* **engines and sessions** (anything with ``search(expression, k)``)
  parallelize over whole queries — each ``search()`` call builds its own
  counters and cursors, so queries are independent;
* **clusters** (:class:`repro.cluster.root.SearchCluster`) parallelize
  over *(query, shard)* pairs: the root's plan step runs serially, leaf
  executions fan out to the pool, and the root merge runs in the main
  thread in query order over shard-ordered results — so the merged
  hits, traffic and work are independent of pool scheduling.

Determinism with observability: when the target (or any cluster leaf)
carries an enabled observer, the driver drops to one worker so traces
and registry counters are recorded in the exact serial order.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter
from typing import List, Optional, Sequence, Union

from repro.core.query import QueryNode
from repro.core.topk import DEFAULT_K
from repro.errors import ConfigurationError

#: Upper bound on the default pool size; beyond this the GIL-bound
#: simulator gains nothing from more threads.
MAX_DEFAULT_WORKERS = 8


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
    ``docs/performance-model.md``). ``per_query_seconds`` entries are
    per-query compute times (for clusters: slowest shard plus the root
    merge), so queue waiting inside the pool is excluded.
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
        #: Cluster runs only: queries whose merge skipped a failed shard.
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


def _default_workers() -> int:
    return max(1, min(MAX_DEFAULT_WORKERS, os.cpu_count() or 1))


def _observer_enabled(target) -> bool:
    observer = getattr(target, "observer", None)
    return bool(observer is not None and getattr(observer, "enabled", False))


def run_query_batch(target, expressions: Sequence[Union[str, QueryNode]],
                    k: Optional[int] = None,
                    workers: Optional[int] = None) -> BatchResult:
    """Execute a batch of queries on ``target`` with a worker pool.

    ``target`` is a per-shard engine / session (``search(expression,
    k)``) or a :class:`~repro.cluster.root.SearchCluster`. Results come
    back in input order and are bit-identical to serial execution.
    """
    expressions = list(expressions)
    if not expressions:
        raise ConfigurationError("query batch is empty")
    if workers is not None and workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    from repro.cluster.root import SearchCluster

    if isinstance(target, SearchCluster):
        return _run_cluster_batch(target, expressions, k, workers)
    return _run_engine_batch(target, expressions, k, workers)


def _run_engine_batch(engine, expressions, k, workers) -> BatchResult:
    if workers is None:
        workers = _default_workers()
    if _observer_enabled(engine):
        workers = 1

    def _one(expression):
        start = perf_counter()
        result = engine.search(expression, k=k)
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
    report = BatchReport(
        num_queries=len(expressions), workers=workers, wall_seconds=wall,
        per_query_seconds=[seconds for _, seconds in timed],
    )
    return BatchResult([result for result, _ in timed], report)


def _run_cluster_batch(cluster, expressions, k, workers) -> BatchResult:
    effective_k = DEFAULT_K if k is None else k
    if workers is None:
        workers = _default_workers()
    if _observer_enabled(cluster) or any(
        _observer_enabled(engine) for engine in cluster.engines
    ):
        workers = 1

    from repro.cluster.resilience import execute_leaf
    from repro.errors import LeafExecutionError

    # Root-side dissection is serial (and cheap): parse + per-shard
    # pruning for every query up front.
    plans = [cluster.plan(expression) for expression in expressions]

    def _leaf(shard_index, pruned, expression):
        # Resilient leaf execution: retries, per-attempt timeout and
        # replica failover happen inside the worker, so a shard's
        # recovery never blocks other (query, shard) pairs. Raises
        # LeafExecutionError (naming query and shard) only under a
        # no-degradation policy.
        return execute_leaf(
            cluster.shard_candidates(shard_index), pruned, effective_k,
            cluster.policy, shard_index, expression=expression,
            observer=cluster.observer, clock=cluster.clock,
        )

    wall_start = perf_counter()
    futures = {}
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for query_index, (_, per_shard) in enumerate(plans):
            for shard_index, pruned in enumerate(per_shard):
                if pruned is None:
                    continue
                futures[(query_index, shard_index)] = pool.submit(
                    _leaf, shard_index, pruned, expressions[query_index]
                )
        # Collect by (query, shard) index and merge in the main thread:
        # shard order is fixed per query and query order is input order,
        # so the merge is independent of pool scheduling.
        results = []
        per_query_seconds = []
        queries_degraded = 0
        try:
            for query_index, (node, per_shard) in enumerate(plans):
                leaf_results = []
                outcomes = []
                slowest_shard = 0.0
                for shard_index, pruned in enumerate(per_shard):
                    if pruned is None:
                        leaf_results.append(None)
                        outcomes.append(None)
                        continue
                    outcome = futures[(query_index, shard_index)].result()
                    leaf_results.append(outcome.result)
                    outcomes.append(outcome)
                    slowest_shard = max(slowest_shard,
                                        outcome.elapsed_seconds)
                merge_start = perf_counter()
                merged = cluster.merge(node, leaf_results, k=effective_k,
                                       outcomes=outcomes)
                merge_seconds = perf_counter() - merge_start
                if merged.degraded:
                    queries_degraded += 1
                results.append(merged)
                per_query_seconds.append(slowest_shard + merge_seconds)
        except BaseException as error:
            # A leaf failed under a no-degradation policy (or the merge
            # itself raised): cancel all pending (query, shard) work so
            # the pool drains promptly instead of grinding through a
            # batch whose result has already been abandoned.
            for future in futures.values():
                future.cancel()
            if isinstance(error, LeafExecutionError):
                raise
            raise LeafExecutionError(
                f"cluster batch aborted at query index {query_index} "
                f"({expressions[query_index]!r}): {error!r}",
                expression=expressions[query_index],
            ) from error
    wall = perf_counter() - wall_start
    report = BatchReport(
        num_queries=len(expressions), workers=workers, wall_seconds=wall,
        per_query_seconds=per_query_seconds,
        queries_degraded=queries_degraded,
    )
    return BatchResult(results, report)
