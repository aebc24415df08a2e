"""The SCM-based pooled-memory topology.

A memory node is the paper's unit of near-data processing: four 512 GB
SCM DIMMs behind one memory controller (:data:`NODE_CAPACITY`, Section
IV-D), which is where a BOSS device is placed (Figure 2, Figure 4(a)).
A :class:`MemoryPool` aggregates nodes behind the shared host link
(:data:`~repro.scm.interconnect.CXL_LINK`); each node holds one index
shard and serves queries independently ("no remote access is necessary
as a BOSS core operates only on the shard in the local node", Section
IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.scm.device import OPTANE_NODE_4CH
from repro.scm.interconnect import CXL_LINK

TB = 1 << 40
#: Physical address space of one node: four 512 GB DIMMs.
NODE_CAPACITY = 2 * TB


@dataclass(frozen=True)
class MemoryPool:
    """``nodes`` memory nodes (:data:`OPTANE_NODE_4CH` each) sharing one
    link to the host CPU."""

    nodes: int = 1

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ConfigurationError("pool needs at least one node")

    @property
    def capacity(self) -> int:
        """Total pooled capacity (scales with node count)."""
        return self.nodes * NODE_CAPACITY

    @property
    def aggregate_internal_bandwidth(self) -> float:
        """Sum of node-internal sequential read bandwidths.

        This is the bandwidth an NDP design can exploit; a host-side
        accelerator is capped at the link's bandwidth no matter how many
        nodes are pooled — the paper's core scaling argument.
        """
        return self.nodes * OPTANE_NODE_4CH.seq_read_bw

    @property
    def bandwidth_to_capacity_ratio(self) -> float:
        """Host-visible bytes/s per byte of capacity (falls as nodes grow)."""
        return CXL_LINK.bandwidth / self.capacity

    def publish_metrics(self, registry) -> None:
        """Publish the pool's static topology gauges into a registry.

        Called once per session by observability consumers; the gauges
        describe the hardware configuration every per-query metric is
        conditioned on (node count, capacity, internal vs host-visible
        bandwidth).
        """
        registry.gauge(
            "pool.nodes", "memory nodes in the pool"
        ).set(self.nodes)
        registry.gauge(
            "pool.capacity_bytes", "total pooled SCM capacity"
        ).set(self.capacity)
        registry.gauge(
            "pool.internal_bandwidth", "aggregate node-internal seq read B/s"
        ).set(self.aggregate_internal_bandwidth)
        registry.gauge(
            "pool.bandwidth_to_capacity", "host-visible B/s per byte"
        ).set(self.bandwidth_to_capacity_ratio)
        for i in range(self.nodes):
            registry.gauge(
                "pool.node_seq_read_bw", "per-node sequential read B/s"
            ).set(OPTANE_NODE_4CH.seq_read_bw, node=str(i),
                  device=OPTANE_NODE_4CH.name)
        CXL_LINK.publish_metrics(registry)
