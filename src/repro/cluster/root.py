"""The root node: query fan-out and top-k merge over leaf shards.

Figure 1(b)'s serving topology: the root dissects a user query, sends it
to every leaf (each holding one shard), and merges the leaves' top-k
lists into the final answer. "The entire query processing is fully
parallelized across leaf nodes" — so cluster latency is the slowest
leaf plus the root's merge, and cluster traffic is the sum of the
leaves' (each leaf ships only its top-k back across the shared link
when the leaves are BOSS devices).

Because shard builders carry corpus-global statistics
(:class:`~repro.cluster.sharding.ShardedCorpus`), the merged result is
*identical* to querying a monolithic index — asserted by tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

from repro.core.query import QueryNode, as_query, prune_query_scored
from repro.cluster.resilience import (
    STRICT_POLICY,
    LeafOutcome,
    ResiliencePolicy,
    execute_leaf,
)
from repro.core.result import ScoredDocument, SearchResult, best_hits
from repro.core.topk import DEFAULT_K, positive_k
from repro.errors import ConfigurationError
from repro.observability.observer import NULL_OBSERVER, Observer
# ClusterSearchResult's generated __init__ carries SearchResult's field
# annotations, which resolve in this module.
from repro.scm.traffic import TrafficCounter  # noqa: F401
from repro.sim.metrics import WorkCounters  # noqa: F401


@dataclass
class ClusterSearchResult(SearchResult):
    """Merged outcome of one fanned-out query: the answering leaves'
    hits merged to top-k, and their traffic, work and interconnect
    bytes (the results shipped to the root) summed."""

    #: Per-shard raw results (None where the shard had no query terms
    #: — or, when :attr:`shards_failed` names it, failed outright).
    leaf_results: List[Optional[SearchResult]] = field(default_factory=list)
    #: Per-shard resilience outcomes (None where the shard had no
    #: query terms).
    leaf_outcomes: List[Optional[LeafOutcome]] = field(default_factory=list)
    #: Root-side merge comparisons (host CPU work).
    merge_ops: int = 0

    def _ran(self) -> List[LeafOutcome]:
        return [o for o in self.leaf_outcomes if o is not None]

    @property
    def shards_failed(self) -> List[int]:
        """Shard indices that exhausted retry + failover and were
        skipped."""
        return [o.shard_index for o in self._ran() if o.failed]

    @property
    def leaf_retries(self) -> int:
        """Leaf retries spent answering this query (all shards)."""
        return sum(o.retries for o in self._ran())

    @property
    def leaf_timeouts(self) -> int:
        """Leaf attempts discarded for exceeding the per-attempt
        timeout."""
        return sum(o.timeouts for o in self._ran())

    @property
    def leaf_failovers(self) -> int:
        """Replica switches performed while answering this query."""
        return sum(o.failovers for o in self._ran())

    @property
    def shards_touched(self) -> int:
        return sum(1 for r in self.leaf_results if r is not None)

    @property
    def degraded(self) -> bool:
        """True when the merge completed without at least one shard."""
        return bool(self.shards_failed)

    def publish_metrics(self, registry) -> None:
        registry.counter(
            "cluster.queries", "queries merged at the root"
        ).inc()
        registry.counter(
            "cluster.shards_touched", "leaf shards that executed"
        ).inc(self.shards_touched)
        registry.counter(
            "cluster.merge_ops", "root-side merge comparisons"
        ).inc(self.merge_ops)
        registry.counter(
            "cluster.interconnect_bytes", "leaf->root result bytes"
        ).inc(self.interconnect_bytes)
        if self.degraded:
            registry.counter(
                "cluster.degraded_queries",
                "merges that skipped a failed shard",
            ).inc()
            registry.counter(
                "cluster.shards_failed",
                "shards skipped after exhausting retry + failover",
            ).inc(len(self.shards_failed))


class SearchCluster:
    """A root node over per-shard engines.

    ``engines`` is one search engine per shard — any object with a
    ``search(query, k)`` returning :class:`SearchResult` and an ``index``
    property (BOSS, IIU, or the Lucene model), so the cluster topology
    composes with every engine the library provides.

    ``policy`` configures resilient leaf execution (per-attempt timeout,
    bounded retry, failover, graceful degradation — see
    :mod:`repro.cluster.resilience`). The default
    :data:`~repro.cluster.resilience.STRICT_POLICY` preserves
    pre-resilience semantics: one attempt per shard, and a leaf failure
    raises a :class:`~repro.errors.LeafExecutionError` naming the
    (query, shard).

    ``replicas`` optionally supplies failover targets: ``replicas[i]``
    is the ordered list of backup engines for shard ``i`` (typically
    engines over the same shard index — see
    :meth:`~repro.cluster.sharding.ShardedCorpus` replication).

    ``clock`` supplies attempt timing for resilient leaf execution
    (default: the wall clock; tests pass a
    :class:`repro.clock.VirtualClock` to run fault scenarios in zero
    wall time).
    """

    def __init__(self, engines: List,
                 observer: Observer = NULL_OBSERVER,
                 policy: Optional[ResiliencePolicy] = None,
                 replicas: Optional[List[List]] = None,
                 clock=None) -> None:
        if not engines:
            raise ConfigurationError("cluster needs at least one leaf")
        self._engines = list(engines)
        self._policy = STRICT_POLICY if policy is None else policy
        self._clock = clock
        if replicas is None:
            self._replicas: List[List] = [[] for _ in self._engines]
        else:
            if len(replicas) != len(self._engines):
                raise ConfigurationError(
                    f"{len(replicas)} replica lists for "
                    f"{len(self._engines)} shards"
                )
            self._replicas = [list(group) for group in replicas]
        #: Observability hook for the root (leaves carry their own).
        self._observer = observer
        #: Shards currently being rebalanced away from their primary.
        self._draining: set = set()
        #: Monotonic shard-map version; bumped by :meth:`publish_topology`.
        self._map_version = 0

    @property
    def observer(self) -> Observer:
        """The root's observability hook."""
        return self._observer

    @property
    def engines(self) -> List:
        """The per-shard leaf engines, in shard order."""
        return self._engines

    @property
    def policy(self) -> ResiliencePolicy:
        """The resilience policy governing leaf execution."""
        return self._policy

    @property
    def replicas(self) -> List[List]:
        """Per-shard failover engines (empty lists when unreplicated)."""
        return self._replicas

    @property
    def clock(self):
        """The clock resilient leaf execution runs on (None = wall)."""
        return self._clock

    @property
    def map_version(self) -> int:
        """Which shard-map generation this root is serving."""
        return self._map_version

    def shard_candidates(self, shard_index: int) -> List:
        """Primary-first engine chain for one shard.

        While a shard is *draining* (its primary is streaming a
        rebalance move — see :meth:`set_draining`) the chain is
        replica-first: queries route around the busy primary via the
        ordinary failover machinery, and the primary remains the chain's
        last resort so an unreplicated shard still answers. Shard
        indexes are immutable once built, so the reordering cannot
        change a ranking — only who serves it.
        """
        primary = [self._engines[shard_index]]
        replicas = self._replicas[shard_index]
        if shard_index in self._draining and replicas:
            return list(replicas) + primary
        return primary + list(replicas)

    def set_draining(self, shard_index: int, draining: bool = True) -> None:
        """Mark/unmark one shard's primary as busy with maintenance."""
        if not 0 <= shard_index < len(self._engines):
            raise ConfigurationError(f"no shard {shard_index}")
        if draining:
            self._draining.add(shard_index)
        else:
            self._draining.discard(shard_index)

    @property
    def draining(self) -> frozenset:
        """Shard indices currently routed replica-first."""
        return frozenset(self._draining)

    def publish_topology(self, engines: List,
                         replicas: Optional[List[List]] = None) -> int:
        """Atomically install a new shard map; returns its version.

        The rebalancer builds the replacement engine/replica lists off
        to the side (background maintenance traffic) and swaps them in
        here as one step — no query ever observes a half-moved topology,
        and a crash before this call leaves the old map serving.
        Draining marks are cleared: they refer to the outgoing map's
        shard indices.
        """
        if not engines:
            raise ConfigurationError("cluster needs at least one leaf")
        new_engines = list(engines)
        if replicas is None:
            new_replicas: List[List] = [[] for _ in new_engines]
        else:
            if len(replicas) != len(new_engines):
                raise ConfigurationError(
                    f"{len(replicas)} replica lists for "
                    f"{len(new_engines)} shards"
                )
            new_replicas = [list(group) for group in replicas]
        self._engines = new_engines
        self._replicas = new_replicas
        self._draining = set()
        self._map_version += 1
        return self._map_version

    def plan(self, query: Union[str, QueryNode]) -> "tuple":
        """Root-side query dissection: per-shard pruned sub-queries.

        Returns ``(node, per_shard)`` where ``per_shard[i]`` is the
        query shard ``i`` executes, or None when the shard holds none of
        the query's mandatory terms.
        """
        node = as_query(query)
        return node, [
            prune_query_scored(node, engine.index.__contains__)
            for engine in self._engines
        ]

    def search(self, query: Union[str, QueryNode],
               k: Optional[int] = DEFAULT_K) -> ClusterSearchResult:
        """Fan out, execute per shard (resiliently), merge top-k.

        ``k=None`` means the cluster's default, :data:`DEFAULT_K`.

        Shards run under the cluster's :class:`ResiliencePolicy`: failed
        attempts retry, exhausted primaries fail over to replicas, and
        — under ``allow_degraded`` — a fully exhausted shard is skipped so the merge still completes (the result's
        ``shards_failed`` / ``degraded`` report the quality loss).
        """
        k = positive_k(DEFAULT_K if k is None else k)
        node, per_shard = self.plan(query)
        expression = str(node)

        merged = ClusterSearchResult(query=node, hits=[])
        candidates: List[ScoredDocument] = []
        for shard_index, pruned in enumerate(per_shard):
            if pruned is None:
                merged.leaf_results.append(None)
                merged.leaf_outcomes.append(None)
                continue
            outcome = execute_leaf(
                self.shard_candidates(shard_index), pruned, k,
                self._policy, shard_index, expression=expression,
                observer=self._observer, clock=self._clock,
            )
            merged.leaf_results.append(outcome.result)
            merged.leaf_outcomes.append(outcome)
            if outcome.result is not None:
                merged.absorb(outcome.result)
                candidates.extend(outcome.result.hits)
        # Shards are disjoint docID intervals, so the candidates are
        # distinct documents and a score-ordered selection suffices.
        merged.hits = best_hits(candidates, k)
        merged.merge_ops = len(candidates)
        self._observer.emit(merged)
        return merged
