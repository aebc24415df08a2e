"""Shared host-pool interconnect model (CXL/Gen-Z-like link).

The memory pool's nodes all share one byte-addressable cache-coherent
link to the host CPU (paper Figure 2; "e.g., 64 GB/s for a single CXL
link", Section II-C). BOSS's headline contribution on this axis is that
only the tiny top-k list crosses the link, so scaling out memory nodes
does not bottleneck on it; host-side designs must pull *all* posting data
(or, for IIU, the full unsorted scored result list) across it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.scm.device import GB

#: One-way message latency in seconds (query dispatch, result return).
LINK_LATENCY = 1e-6


@dataclass(frozen=True)
class InterconnectModel:
    """A fixed-bandwidth shared link between the memory pool and the host."""

    name: str
    bandwidth: float  # bytes/second

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ConfigurationError(f"{self.name}: bandwidth must be positive")

    def transfer_time(self, num_bytes: int) -> float:
        """Seconds to move ``num_bytes`` across the link (no latency)."""
        if num_bytes < 0:
            raise ConfigurationError("negative transfer size")
        return num_bytes / self.bandwidth

    def publish_metrics(self, registry) -> None:
        """Publish the link's static gauges into a metrics registry."""
        registry.gauge(
            "interconnect.bandwidth", "host link bandwidth (B/s)"
        ).set(self.bandwidth, link=self.name)
        registry.gauge(
            "interconnect.latency_seconds", "one-way message latency"
        ).set(LINK_LATENCY, link=self.name)


#: Single CXL link, Section II-C.
CXL_LINK = InterconnectModel(name="cxl-x16", bandwidth=64 * GB)
