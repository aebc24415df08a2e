"""Memory Access Interface (MAI) with a local TLB (paper Section IV-D).

Every SCM request from a BOSS core goes through the MAI, which performs
virtual-to-physical translation with a local (duplicate) TLB. The paper
sizes it so misses never happen in steady state: with 2 GB huge pages, a
1 K-entry TLB covers the node's whole 2 TB physical space, "preventing a
TLB miss from generating additional memory access and/or host
intervention".

The model tracks translations and would surface misses if an index were
mapped with insufficient coverage — a behavior tests exercise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import ConfigurationError, SimulationError

GB = 1 << 30

#: 2 GB huge pages (common practice for large-memory workloads [33]).
PAGE_SIZE = 2 * GB

#: 1 K entries x 2 GB pages = 2 TB of coverage (Table I node capacity).
TLB_ENTRIES = 1024


@dataclass
class TLBStats:
    """Translation counters."""

    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 1.0


class MemoryAccessInterface:
    """Address translation front-end of the BOSS device: ``TLB_ENTRIES``
    translations of ``PAGE_SIZE`` pages."""

    page_size = PAGE_SIZE
    #: Bytes the TLB can map simultaneously.
    coverage = PAGE_SIZE * TLB_ENTRIES

    def __init__(self) -> None:
        #: Full page table (virtual page number -> physical page number),
        #: installed by init(); the TLB caches a subset.
        self._page_table: Dict[int, int] = {}
        self._tlb: Dict[int, int] = {}
        self.stats = TLBStats()

    def map_range(self, virtual_base: int, physical_base: int,
                  size: int) -> None:
        """Install a contiguous mapping (what ``init()`` sends to the MAI)."""
        if size <= 0:
            raise ConfigurationError("mapping size must be positive")
        if virtual_base % PAGE_SIZE or physical_base % PAGE_SIZE:
            raise ConfigurationError("mapping must be page aligned")
        num_pages = (size + PAGE_SIZE - 1) // PAGE_SIZE
        first_vpn = virtual_base // PAGE_SIZE
        first_ppn = physical_base // PAGE_SIZE
        for i in range(num_pages):
            self._page_table[first_vpn + i] = first_ppn + i

    def translate(self, virtual_address: int) -> int:
        """Translate one address, updating TLB statistics."""
        if virtual_address < 0:
            raise SimulationError("negative virtual address")
        vpn, offset = divmod(virtual_address, PAGE_SIZE)
        ppn = self._tlb.get(vpn)
        if ppn is not None:
            self.stats.hits += 1
            return ppn * PAGE_SIZE + offset
        self.stats.misses += 1
        try:
            ppn = self._page_table[vpn]
        except KeyError:
            raise SimulationError(
                f"unmapped virtual address {virtual_address:#x}"
            ) from None
        if len(self._tlb) >= TLB_ENTRIES:
            # FIFO-ish eviction; irrelevant in the paper's sized regime.
            self._tlb.pop(next(iter(self._tlb)))
        self._tlb[vpn] = ppn
        return ppn * PAGE_SIZE + offset
