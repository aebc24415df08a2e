"""Flat address-space layout for the index inside the SCM pool.

The performance model needs stable byte addresses for every compressed
posting list so the SCM device model can classify accesses as sequential
(consecutive blocks of one list) or random (jumps between lists,
binary-search probes). :class:`AddressSpaceLayout` is a simple bump
allocator over the memory node's physical address space; ``init()`` in
the offloading API uses it to place the index, mirroring the paper's
"loads the inverted index file from disk to SCM memory pool".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import ConfigurationError

#: Alignment of every allocation, one SCM access granule (Optane's
#: internal 256-byte block is the natural choice; 64 B would model the
#: cache-line interface instead).
ALIGNMENT = 256

#: Bytes available to the allocator: one memory node, the paper's four
#: 512 GB DIMMs.
CAPACITY = 2 << 40


@dataclass(frozen=True)
class Region:
    """A contiguous allocated byte range ``[base, base + size)``."""

    base: int
    size: int

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, address: int) -> bool:
        return self.base <= address < self.end


class AddressSpaceLayout:
    """Bump allocator assigning regions to named objects within one
    node's ``CAPACITY``, each region starting at a multiple of
    ``ALIGNMENT``."""

    def __init__(self) -> None:
        self._cursor = 0
        self._regions: Dict[str, Region] = {}

    @property
    def allocated_bytes(self) -> int:
        """High-water mark of the allocator."""
        return self._cursor

    def allocate(self, name: str, size: int) -> Region:
        """Reserve ``size`` bytes under ``name`` and return the region."""
        if name in self._regions:
            raise ConfigurationError(f"region {name!r} already allocated")
        if size < 0:
            raise ConfigurationError(f"negative allocation size {size}")
        base = self._align(self._cursor)
        if base + size > CAPACITY:
            raise ConfigurationError(
                f"allocation of {size} B for {name!r} exceeds capacity "
                f"({base + size} > {CAPACITY})"
            )
        region = Region(base=base, size=size)
        self._regions[name] = region
        self._cursor = base + size
        return region

    def region(self, name: str) -> Region:
        """Look up a previously allocated region."""
        try:
            return self._regions[name]
        except KeyError:
            raise ConfigurationError(f"unknown region {name!r}") from None

    def find(self, address: int) -> Optional[str]:
        """Name of the region containing ``address``, if any."""
        for name, region in self._regions.items():
            if region.contains(address):
                return name
        return None

    def __contains__(self, name: str) -> bool:
        return name in self._regions

    def __len__(self) -> int:
        return len(self._regions)

    def _align(self, value: int) -> int:
        mask = ALIGNMENT - 1
        return (value + mask) & ~mask
