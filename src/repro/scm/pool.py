"""Memory nodes and the SCM-based pooled-memory topology.

A :class:`MemoryNode` is the paper's unit of near-data processing: a set
of SCM DIMMs behind one memory controller, which is where a BOSS device
is placed (Figure 2, Figure 4(a)). A :class:`MemoryPool` aggregates nodes
behind the shared host interconnect; each node holds one index shard and
serves queries independently ("no remote access is necessary as a BOSS
core operates only on the shard in the local node", Section IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.errors import ConfigurationError
from repro.scm.device import OPTANE_NODE_4CH, MemoryDeviceModel
from repro.scm.interconnect import CXL_LINK, InterconnectModel

TB = 1 << 40


@dataclass(frozen=True)
class MemoryNode:
    """One pooled-memory node: DIMMs + memory controller (+ NDP device).

    The paper assumes four 512 GB DIMMs per node, 2 TB of physical
    address space (Section IV-D, Address Translation).
    """

    device: MemoryDeviceModel = OPTANE_NODE_4CH
    capacity: int = 2 * TB
    num_dimms: int = 4

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ConfigurationError("node capacity must be positive")
        if self.num_dimms <= 0:
            raise ConfigurationError("node needs at least one DIMM")


@dataclass(frozen=True)
class MemoryPool:
    """Memory nodes sharing one link to the host CPU."""

    nodes: List[MemoryNode] = field(default_factory=lambda: [MemoryNode()])
    interconnect: InterconnectModel = CXL_LINK

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ConfigurationError("pool needs at least one node")

    @property
    def capacity(self) -> int:
        """Total pooled capacity (scales with node count)."""
        return sum(node.capacity for node in self.nodes)

    @property
    def aggregate_internal_bandwidth(self) -> float:
        """Sum of node-internal sequential read bandwidths.

        This is the bandwidth an NDP design can exploit; a host-side
        accelerator is capped at ``interconnect.bandwidth`` no matter how
        many nodes are pooled — the paper's core scaling argument.
        """
        return sum(node.device.seq_read_bw for node in self.nodes)

    @property
    def bandwidth_to_capacity_ratio(self) -> float:
        """Host-visible bytes/s per byte of capacity (falls as nodes grow)."""
        return self.interconnect.bandwidth / self.capacity

    def publish_metrics(self, registry) -> None:
        """Publish the pool's static topology gauges into a registry.

        Called once per session by observability consumers; the gauges
        describe the hardware configuration every per-query metric is
        conditioned on (node count, capacity, internal vs host-visible
        bandwidth).
        """
        registry.gauge(
            "pool.nodes", "memory nodes in the pool"
        ).set(len(self.nodes))
        registry.gauge(
            "pool.capacity_bytes", "total pooled SCM capacity"
        ).set(self.capacity)
        registry.gauge(
            "pool.internal_bandwidth", "aggregate node-internal seq read B/s"
        ).set(self.aggregate_internal_bandwidth)
        registry.gauge(
            "pool.bandwidth_to_capacity", "host-visible B/s per byte"
        ).set(self.bandwidth_to_capacity_ratio)
        for i, node in enumerate(self.nodes):
            registry.gauge(
                "pool.node_seq_read_bw", "per-node sequential read B/s"
            ).set(node.device.seq_read_bw, node=str(i),
                  device=node.device.name)
        self.interconnect.publish_metrics(registry)
