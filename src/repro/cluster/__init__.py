"""Distributed serving: root node + sharded leaf nodes (paper Fig. 1(b)).

A web-scale search service splits the inverted index into disjoint
docID-interval *shards*, one per leaf node; a root node fans a query out
to every leaf and merges their top-k results (Section II-B). In the
paper's deployment each leaf is one SCM memory node with a BOSS device.

* :mod:`repro.cluster.sharding` — interval sharding of a document
  collection, with corpus-global statistics distributed to shard
  builders so BM25 scores are identical to a monolithic index;
* :mod:`repro.cluster.root` — the root node: fan-out, leaf execution on
  any engine, score-ordered top-k merge, and aggregate traffic/latency
  accounting;
* :mod:`repro.cluster.resilience` — policy-driven resilient leaf
  execution: per-attempt timeouts, bounded retry, replica failover, and graceful degradation with degraded-result accounting;
* :mod:`repro.cluster.rebalance` — elastic topology: shard split/merge
  and replica add/catch-up as metered background maintenance traffic,
  with an atomic shard-map publish and named mid-move kill-points.
"""

from repro.cluster.rebalance import (
    AddReplica,
    MergeShards,
    MoveReport,
    RebalancingClusterTarget,
    Rebalancer,
    SplitShard,
    parse_rebalance_script,
    rebalance_requests,
)
from repro.cluster.resilience import (
    STRICT_POLICY,
    LeafOutcome,
    ResiliencePolicy,
)
from repro.cluster.root import ClusterSearchResult, SearchCluster
from repro.cluster.sharding import ShardedCorpus, shard_documents

__all__ = [
    "SearchCluster",
    "ClusterSearchResult",
    "ShardedCorpus",
    "shard_documents",
    "ResiliencePolicy",
    "LeafOutcome",
    "STRICT_POLICY",
    "Rebalancer",
    "RebalancingClusterTarget",
    "MoveReport",
    "SplitShard",
    "MergeShards",
    "AddReplica",
    "parse_rebalance_script",
    "rebalance_requests",
]
