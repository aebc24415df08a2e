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

GIB = 1 << 30
GB = 10 ** 9


@dataclass(frozen=True)
class MemoryDeviceModel:
    """A memory device (node-level DIMM aggregate) bandwidth model.

    Bandwidths are bytes/second; ``access_granule`` is the smallest
    transfer the device performs (Optane's internal 256 B block; 64 B for
    DRAM cache lines) and is used by engines to round block fetches up.
    """

    name: str
    seq_read_bw: float
    rand_read_bw: float
    write_bw: float
    access_granule: int = 256
    #: Idle (unloaded) read latency in seconds; used for latency-sensitive
    #: single-access paths such as IIU's binary-search probes.
    read_latency: float = 300e-9

    def __post_init__(self) -> None:
        if min(self.seq_read_bw, self.rand_read_bw, self.write_bw) <= 0:
            raise ConfigurationError(f"{self.name}: bandwidths must be positive")
        if self.rand_read_bw > self.seq_read_bw:
            raise ConfigurationError(
                f"{self.name}: random read bandwidth cannot exceed sequential"
            )
        if self.access_granule <= 0:
            raise ConfigurationError(f"{self.name}: bad access granule")

    def round_up(self, num_bytes: int) -> int:
        """Round a transfer up to whole access granules."""
        granule = self.access_granule
        return ((num_bytes + granule - 1) // granule) * granule

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
    read_latency=300e-9,
)

#: Host memory system: Intel Apache Pass (Optane), 6 channels, 39.6 GB/s
#: (6.6 GB/s per channel, Table I). Used when Lucene runs against the SCM
#: pool through the host.
OPTANE_HOST_6CH = MemoryDeviceModel(
    name="optane-host-6ch",
    seq_read_bw=39.6 * GB,
    rand_read_bw=39.6 * GB * (6.6 / 25.6),  # same seq/rand ratio as the node
    write_bw=2.3 * GB * 6 / 4,
    access_granule=256,
    read_latency=300e-9,
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
    read_latency=90e-9,
)

#: Host DDR4 system of Table I: 6 channels, 140.76 GB/s.
DDR4_6CH = MemoryDeviceModel(
    name="ddr4-6ch",
    seq_read_bw=140.76 * GB,
    rand_read_bw=70.38 * GB,
    write_bw=140.76 * GB,
    access_granule=64,
    read_latency=90e-9,
)
