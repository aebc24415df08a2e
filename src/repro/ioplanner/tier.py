"""Shared DRAM-over-SCM tier with segmented promotion.

The repository's one simulated DRAM tier in front of SCM. The planner
shares it across every tenant as its *online* staging area, and
:func:`replay_fetches` replays engine fetch traces through it offline
(the ``cache_tier`` figure). It is a segmented LRU: blocks enter the
cold segment on their first demand fetch, are promoted cold -> warm ->
hot on re-reference, and are evicted cold-first — one burst of
one-shot blocks cannot flush the hot working set (the scan-resistance
argument behind SLRU / bcache-style tiers). Each segment is one
:class:`repro.cache.BlockLRU` weighted by payload bytes.

The tier holds only blocks a query demanded: it stages nothing ahead
of demand (``docs/io_planner.md`` records why).

A *term* here is whatever names one posting list: the planner passes
its ``(node, term)`` list key, so one term's lists on different shards
are staged apart.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Optional, Tuple

from repro.cache import BlockLRU
from repro.errors import ConfigurationError
from repro.ioplanner.plan import RoutedBytes
from repro.scm.device import DDR4_4CH, OPTANE_NODE_4CH
from repro.scm.traffic import AccessPattern, FetchRecord

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


# ----------------------------------------------------------------------
# Offline replay of engine fetch traces
# ----------------------------------------------------------------------

class _ScmRuns:
    """The one run rule of the SCM side, with or without a tier: a fetch
    continues a sequential run only when the engine observed it as
    sequential *and* the device's previous SCM fetch was the same term's
    previous block. Everything else — skip landings, list starts, runs
    broken by a DRAM hit or another term — pays the random rate: a run's
    first block is its seek."""

    __slots__ = ("_last",)

    def __init__(self) -> None:
        #: (term, block_index) of the immediately preceding SCM fetch.
        self._last: Optional[Tuple[Hashable, int]] = None

    def fetch(self, routed: RoutedBytes, term: Hashable, block_index: int,
              size: int, pattern: AccessPattern) -> None:
        if (pattern is AccessPattern.SEQUENTIAL
                and self._last == (term, block_index - 1)):
            routed.scm_seq_bytes += size
        else:
            routed.scm_rand_bytes += size
        self._last = (term, block_index)

    def interrupt(self) -> None:
        """A fetch was served elsewhere: the next one restarts its run."""
        self._last = None


def replay_fetches(records: Iterable[FetchRecord],
                   tier: Optional[DramTier] = None) -> RoutedBytes:
    """Replay engine fetch records, in order, through ``tier`` in front
    of the Table I SCM node.

    A block the tier holds is a DRAM hit and interrupts the SCM run; a
    miss is charged by :class:`_ScmRuns` at the pattern the device
    observes, then admitted. With no tier every record is a miss: the
    no-cache baseline. Unlike a planning window, a replay neither
    dedups nor coalesces.
    """
    routed = RoutedBytes()
    runs = _ScmRuns()
    for term, block_index, size, pattern in records:
        routed.demand_blocks += 1
        routed.demand_bytes += size
        if tier is not None and tier.lookup(term, block_index, size):
            routed.dram_hit_bytes += size
            runs.interrupt()
            continue
        runs.fetch(routed, term, block_index, size, pattern)
        if tier is not None:
            tier.admit(term, block_index, size)
    routed.check_conservation()
    return routed


def replay_seconds(routed: RoutedBytes) -> float:
    """Block-fetch service time of a :func:`replay_fetches` result.

    Hits are scattered single-block DDR4 lookups (random at DRAM's mild
    penalty); misses are charged at the pattern the replay observed.
    """
    # The SCM terms are summed first, so with no hits this is exactly
    # the SCM time (0.0 + x == x): the baseline stays bit-identical.
    return (
        DDR4_4CH.read_time(routed.dram_hit_bytes, AccessPattern.RANDOM)
        + (OPTANE_NODE_4CH.read_time(routed.scm_seq_bytes,
                                     AccessPattern.SEQUENTIAL)
           + OPTANE_NODE_4CH.read_time(routed.scm_rand_bytes,
                                       AccessPattern.RANDOM))
    )


def uncached_memory_seconds(records: Iterable[FetchRecord]) -> float:
    """Block-fetch service time on the Table I SCM node with no tier at
    all: the same replay with nothing in front of the SCM, so a replay
    in which nothing hits costs exactly this, to the bit."""
    return replay_seconds(replay_fetches(records))
