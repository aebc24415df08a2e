"""Bandwidth/latency model of a memory node's DIMM set.

The model captures the three properties of SCM that drive every result in
the paper (Sections II-A and V-A, Table I):

* sequential read bandwidth ≫ random read bandwidth (25.6 vs 6.6 GB/s
  for the 4-channel Optane node of Table I);
* writes are several-fold slower than reads (2.3 GB/s);
* DRAM has far higher bandwidth and a much smaller random-access penalty.

Service time for a traffic aggregate is computed bucket-wise:

    ``time = seq_read/BW_seq + rand_read/BW_rand + write/BW_write``

which corresponds to a bandwidth-saturated device (the regime the paper
evaluates — cores are added until the device bandwidth is the wall).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.scm.traffic import AccessPattern, TrafficCounter

GB = 10 ** 9


@dataclass(frozen=True)
class MemoryDeviceModel:
    """A memory device (node-level DIMM aggregate) bandwidth model.

    Bandwidths are bytes/second; ``access_granule`` is the smallest
    transfer the device performs (Optane's internal 256 B block; 64 B for
    DRAM cache lines). Only :meth:`repro.vector.engine.VectorEngine._scan`
    reads it, pricing a cluster's first granule as a random read; the
    posting-list engines do not round fetches to it (ROADMAP item 10
    decides one rule for every fetch).
    """

    name: str
    seq_read_bw: float
    rand_read_bw: float
    write_bw: float
    access_granule: int = 256

    def __post_init__(self) -> None:
        if min(self.seq_read_bw, self.rand_read_bw, self.write_bw) <= 0:
            raise ConfigurationError(f"{self.name}: bandwidths must be positive")
        if self.rand_read_bw > self.seq_read_bw:
            raise ConfigurationError(
                f"{self.name}: random read bandwidth cannot exceed sequential"
            )
        if self.access_granule <= 0:
            raise ConfigurationError(f"{self.name}: bad access granule")

    def service_time(self, traffic: TrafficCounter) -> float:
        """Seconds to move ``traffic`` through this device at saturation.

        Writes cover both intermediate spills and result stores: the
        accelerators materialize their output lists in the pooled
        memory (the ``resultAddr`` buffer of the offloading API) before
        the host pulls them over the link, so result bytes pay the
        SCM's write bandwidth — negligible for BOSS's top-k, punishing
        for IIU's full unsorted lists.
        """
        seq = traffic.read_bytes_by_pattern(AccessPattern.SEQUENTIAL)
        rand = traffic.read_bytes_by_pattern(AccessPattern.RANDOM)
        writes = traffic.write_bytes
        return (
            seq / self.seq_read_bw
            + rand / self.rand_read_bw
            + writes / self.write_bw
        )

    def read_time(self, num_bytes: int, pattern: AccessPattern) -> float:
        """Seconds to read ``num_bytes`` with the given pattern."""
        bw = (
            self.seq_read_bw
            if pattern is AccessPattern.SEQUENTIAL
            else self.rand_read_bw
        )
        return num_bytes / bw


# ---------------------------------------------------------------------------
# Table I presets
# ---------------------------------------------------------------------------

#: BOSS memory system: SCM, 4 channels (Table I, citing [70]). The read
#: figures (25.6 GB/s sequential, 6.6 GB/s random) are node aggregates;
#: the 2.3 GB/s write figure is [70]'s per-DIMM measurement, so the
#: 4-DIMM node sustains 4 x 2.3 = 9.2 GB/s of writes.
OPTANE_NODE_4CH = MemoryDeviceModel(
    name="optane-4ch",
    seq_read_bw=25.6 * GB,
    rand_read_bw=6.6 * GB,
    write_bw=4 * 2.3 * GB,
    access_granule=256,
)

#: DRAM comparison point of Figure 16: DDR4-2666, 4 channels, 85.2 GB/s.
#: DRAM's random-access penalty is mild (row-buffer misses), modeled at
#: half the sequential bandwidth; writes run at full channel bandwidth.
DDR4_4CH = MemoryDeviceModel(
    name="ddr4-4ch",
    seq_read_bw=85.2 * GB,
    rand_read_bw=42.6 * GB,
    write_bw=85.2 * GB,
    access_granule=64,
)
