"""Shared DRAM-over-SCM tier with segmented promotion and prefetch.

Unlike the per-study :class:`repro.cache.LRUBlockCache` (a flat LRU
replayed offline), this tier is the planner's *online* staging area,
shared by every tenant. It is a segmented LRU: blocks enter the cold
segment on their first demand fetch, are promoted cold -> warm -> hot
on re-reference, and are evicted cold-first — one burst of one-shot
blocks cannot flush the hot working set (the scan-resistance argument
behind SLRU / bcache-style tiers). Each segment is one
:class:`repro.cache.BlockLRU` weighted by payload bytes.

The tier also tracks per-term popularity as an exponentially decayed
byte count per planning window. The planner uses the top terms as
prefetch candidates: posting lists are Zipf-skewed, so the next blocks
of the currently-hot terms are the best guess for the next window's
demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cache import BlockLRU
from repro.errors import ConfigurationError

#: Segment names, eviction order first.
SEGMENTS = ("cold", "warm", "hot")

#: Share of the capacity the hot segment may hold before it demotes.
HOT_FRACTION = 0.5
#: Share of the capacity the warm segment may hold before it demotes.
WARM_FRACTION = 0.3
#: Per-window decay of a term's popularity score.
POPULARITY_DECAY = 0.5


@dataclass(frozen=True)
class PrefetchCandidate:
    """One block the popularity model suggests staging ahead of demand."""

    term: str
    block_index: int
    #: Estimated payload bytes (mean of the term's observed blocks).
    size: int


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
        #: term -> decayed popularity (bytes).
        self._popularity: Dict[str, float] = {}
        #: term -> bytes demanded in the current window.
        self._window_bytes: Dict[str, int] = {}
        #: term -> (max block index seen, total bytes, blocks seen).
        self._term_shape: Dict[str, Tuple[int, int, int]] = {}

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

    def segment_of(self, term: str, block_index: int) -> Optional[str]:
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

    def lookup(self, term: str, block_index: int, size: int) -> bool:
        """Probe the tier for one demanded block; promote on a hit."""
        if size < 0:
            raise ConfigurationError("negative block size")
        self._note_demand(term, block_index, size)
        key = (term, block_index)
        position = self._remove(key)
        if position is None:
            self.misses += 1
            return False
        self.hits += 1
        self._place(key, size,
                    SEGMENTS[min(position + 1, len(SEGMENTS) - 1)])
        return True

    def admit(self, term: str, block_index: int, size: int,
              segment: str = "cold") -> None:
        """Insert a block fetched from SCM (demand: cold; prefetch:
        warm, so speculation cannot evict the proven-hot set)."""
        if segment not in SEGMENTS:
            raise ConfigurationError(f"unknown tier segment {segment!r}")
        if size < 0:
            raise ConfigurationError("negative block size")
        key = (term, block_index)
        position = self._remove(key)
        if position is not None:
            segment = SEGMENTS[position]  # refresh, keep its standing
        self._place(key, size, segment)

    def contains(self, term: str, block_index: int) -> bool:
        return self.segment_of(term, block_index) is not None

    # ------------------------------------------------------------------
    # Popularity / prefetch
    # ------------------------------------------------------------------

    def end_window(self) -> None:
        """Fold the window's demand into the decayed popularity model."""
        for term, score in list(self._popularity.items()):
            decayed = score * POPULARITY_DECAY
            if decayed < 1.0 and term not in self._window_bytes:
                del self._popularity[term]
            else:
                self._popularity[term] = decayed
        for term, nbytes in self._window_bytes.items():
            self._popularity[term] = (
                self._popularity.get(term, 0.0) + nbytes
            )
        self._window_bytes.clear()

    def hot_terms(self, count: int) -> List[str]:
        """The ``count`` most popular terms, by decayed demand bytes."""
        ranked = sorted(self._popularity.items(),
                        key=lambda item: (-item[1], item[0]))
        return [term for term, _score in ranked[:count]]

    def prefetch_candidates(self, terms_count: int,
                            depth: int) -> List[PrefetchCandidate]:
        """Next blocks of the hot terms, past the deepest block seen.

        The planner only ever observes fetched blocks, so list lengths
        are unknown; candidates may overshoot a short list's end and
        the overshoot is honest modeled waste, reported as prefetch
        traffic. Sizes are the term's observed mean block payload.
        """
        out: List[PrefetchCandidate] = []
        for term in self.hot_terms(terms_count):
            shape = self._term_shape.get(term)
            if shape is None:
                continue
            max_block, total_bytes, blocks_seen = shape
            mean_size = max(1, total_bytes // max(1, blocks_seen))
            for offset in range(1, depth + 1):
                block = max_block + offset
                if not self.contains(term, block):
                    out.append(PrefetchCandidate(term, block, mean_size))
        return out

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _note_demand(self, term: str, block_index: int, size: int) -> None:
        self._window_bytes[term] = (
            self._window_bytes.get(term, 0) + size
        )
        max_block, total, seen = self._term_shape.get(term, (-1, 0, 0))
        self._term_shape[term] = (
            max(max_block, block_index), total + size, seen + 1
        )

    def _remove(self, key: Tuple[str, int]) -> Optional[int]:
        """Pop ``key`` from the segment holding it; that segment's
        position in :data:`SEGMENTS`, or None if it is not resident."""
        for position, name in enumerate(SEGMENTS):
            segment = self._segments[name]
            if key in segment.entries:
                segment.pop(key)
                return position
        return None

    def _place(self, key: Tuple[str, int], size: int,
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
