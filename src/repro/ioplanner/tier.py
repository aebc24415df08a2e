"""Shared DRAM-over-SCM tier with segmented promotion.

Unlike the per-study :class:`repro.cache.LRUBlockCache` (a flat LRU
replayed offline), this tier is the planner's *online* staging area,
shared by every tenant. It is a segmented LRU: blocks enter the cold
segment on their first demand fetch, are promoted cold -> warm -> hot
on re-reference, and are evicted cold-first — one burst of one-shot
blocks cannot flush the hot working set (the scan-resistance argument
behind SLRU / bcache-style tiers). Each segment is one
:class:`repro.cache.BlockLRU` weighted by payload bytes.

The tier holds only blocks a query demanded: it stages nothing ahead
of demand (``docs/io_planner.md`` records why).

A *term* here is whatever names one posting list: the planner passes
its ``(node, term)`` list key, so one term's lists on different shards
are staged apart.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Tuple

from repro.cache import BlockLRU
from repro.errors import ConfigurationError

#: Segment names, eviction order first.
SEGMENTS = ("cold", "warm", "hot")

#: Share of the capacity the hot segment may hold before it demotes.
HOT_FRACTION = 0.5
#: Share of the capacity the warm segment may hold before it demotes.
WARM_FRACTION = 0.3


class DramTier:
    """Byte-capacity segmented LRU over ``(term, block)`` keys.

    :data:`HOT_FRACTION` / :data:`WARM_FRACTION` of the capacity bound
    the privileged segments; the remainder is the cold probation
    segment. Capacity pressure first demotes over-full hot/warm tails
    downward, then evicts the cold LRU — so the demand path can only
    displace proven-hot blocks after the entire probation segment is
    gone.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ConfigurationError("tier capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self._limits = {
            "hot": int(HOT_FRACTION * capacity_bytes),
            "warm": int(WARM_FRACTION * capacity_bytes),
        }
        self._segments: Dict[str, BlockLRU] = {
            name: BlockLRU() for name in SEGMENTS
        }
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # Occupancy views
    # ------------------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        cold, warm, hot = self._segments.values()
        return cold.used + warm.used + hot.used

    @property
    def num_blocks(self) -> int:
        return sum(len(segment) for segment in self._segments.values())

    def segment_bytes(self, name: str) -> int:
        return self._segments[name].used

    def segment_of(self, term: Hashable, block_index: int) -> Optional[str]:
        key = (term, block_index)
        for name in SEGMENTS:
            if key in self._segments[name].entries:
                return name
        return None

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # ------------------------------------------------------------------
    # Demand path
    # ------------------------------------------------------------------

    def lookup(self, term: Hashable, block_index: int, size: int) -> bool:
        """Probe the tier for one demanded block; promote on a hit."""
        if size < 0:
            raise ConfigurationError("negative block size")
        key = (term, block_index)
        position = self._remove(key)
        if position is None:
            self.misses += 1
            return False
        self.hits += 1
        self._place(key, size,
                    SEGMENTS[min(position + 1, len(SEGMENTS) - 1)])
        return True

    def admit(self, term: Hashable, block_index: int, size: int) -> None:
        """Insert a block fetched from SCM into cold; a block already
        resident is refreshed in its own segment."""
        if size < 0:
            raise ConfigurationError("negative block size")
        key = (term, block_index)
        position = self._remove(key)
        self._place(key, size,
                    SEGMENTS[0 if position is None else position])

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _remove(self, key: Tuple[Hashable, int]) -> Optional[int]:
        """Pop ``key`` from the segment holding it; that segment's
        position in :data:`SEGMENTS`, or None if it is not resident."""
        for position, name in enumerate(SEGMENTS):
            segment = self._segments[name]
            if key in segment.entries:
                segment.pop(key)
                return position
        return None

    def _place(self, key: Tuple[Hashable, int], size: int,
               segment: str) -> None:
        if size > self.capacity_bytes:
            return  # uncacheable oversized block
        self._segments[segment].push(key, size)
        self._rebalance()

    def _rebalance(self) -> None:
        segments = self._segments
        # Over-full privileged segments demote their LRU tail downward
        # (a segment over its non-negative limit is never empty).
        for upper, lower in (("hot", "warm"), ("warm", "cold")):
            source, target = segments[upper], segments[lower]
            while source.used > self._limits[upper]:
                key, (size, _value) = source.pop_lru()
                target.push(key, size)
        # Capacity pressure evicts cold-first.
        excess = self.used_bytes - self.capacity_bytes
        for name in SEGMENTS:
            segment = segments[name]
            while excess > 0 and segment.entries:
                _key, (size, _value) = segment.pop_lru()
                excess -= size
