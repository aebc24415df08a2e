"""Block caches over one weighted LRU core (extension study).

The paper's memory node pairs slow, huge SCM with the memory
controller's fast path; a natural extension — and prior art the paper
cites (compressed inverted-list caching, [73]) — is a small DRAM-side
cache for hot posting-list blocks. Query logs are heavily skewed
(Zipfian query popularity), so a cache of a few percent of the index
can absorb a large share of the block fetches, multiplying the
effective SCM bandwidth.

Every block cache in the repository keeps its bookkeeping in one core,
:class:`BlockLRU`: an ordered ``key -> (weight, value)`` map, least
recently used first, with a running ``used`` weight. A cache is a
policy over it — what a block weighs and when to evict:

* :class:`LRUBlockCache` — weight = payload bytes; an access pops the
  key, pushes it back at the MRU end, then evicts LRU entries until
  ``used`` fits the byte capacity. A block larger than the whole cache
  is never pushed.
* :class:`DecodedBlockCache` — weight 1 per decoded block, capacity in
  blocks, behind a lock (see below).
* :class:`repro.ioplanner.tier.DramTier` — three cores (cold, warm,
  hot); hits promote a block one core up, over-full upper cores demote
  their LRU tail down, and capacity pressure evicts cold first.

The simulated DRAM tier replays the engines' fetch traces:

* :class:`CacheSimulator` — replays per-query fetch logs through an
  :class:`LRUBlockCache`, producing a :class:`CacheReport` with hit
  rates and the SCM bytes absorbed;
* :func:`cached_memory_seconds` — the memory-side service time with the
  cache in place (hits at DRAM speed, misses at SCM speed).

:class:`DecodedBlockCache` is the host-side *decoded*-block cache used
by the fast query path: already-decompressed ``(docID array, tf
array)`` pairs. Unlike the simulated DRAM tier above, this cache is
purely a wall-clock optimization — the performance model still charges
the full modeled SCM traffic and decompression work for every block
touch, so modeled metrics are bit-identical with the cache on or off.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Optional, Tuple

from repro.errors import ConfigurationError
from repro.observability.observer import NULL_OBSERVER, Observer
from repro.scm.device import DDR4_4CH, OPTANE_NODE_4CH
from repro.scm.traffic import AccessPattern

#: One fetch-trace entry: (term, block_index, payload_bytes, pattern).
#: ``pattern`` is the engine-observed :class:`AccessPattern` of the
#: fetch — sequential only when the block continued the cursor's
#: previous fetched block; a metadata-guided skip landing is random.
FetchRecord = Tuple[str, int, int, AccessPattern]


@dataclass(frozen=True)
class BlockCacheAccess:
    """One :meth:`LRUBlockCache.access` (observer event)."""

    hit: bool
    nbytes: int

    def publish_metrics(self, registry) -> None:
        registry.counter(
            "cache.accesses", "DRAM block-cache lookups"
        ).inc(outcome="hit" if self.hit else "miss")
        registry.counter(
            "cache.bytes", "bytes served per tier"
        ).inc(self.nbytes, tier="dram" if self.hit else "scm")


class BlockLRU:
    """The one LRU core: ``key -> (weight, value)``, oldest first.

    ``used`` is the running sum of the resident weights. The core has
    no capacity and evicts nothing by itself; the cache built on it
    decides what a block weighs and when to :meth:`pop_lru`.
    """

    __slots__ = ("entries", "used")

    def __init__(self) -> None:
        self.entries: "OrderedDict[Hashable, Tuple[int, Any]]" = (
            OrderedDict()
        )
        self.used = 0

    def __len__(self) -> int:
        return len(self.entries)

    def pop(self, key: Hashable) -> Optional[Tuple[int, Any]]:
        """Remove ``key``; its ``(weight, value)``, or None if absent."""
        entry = self.entries.pop(key, None)
        if entry is not None:
            self.used -= entry[0]
        return entry

    def push(self, key: Hashable, weight: int, value: Any = None) -> None:
        """Insert ``key`` at the MRU end. It must not be resident: pop
        it first, or ``used`` counts it twice."""
        self.entries[key] = (weight, value)
        self.used += weight

    def pop_lru(self) -> Tuple[Hashable, Tuple[int, Any]]:
        """Remove and return the least recently used ``(key, entry)``."""
        key, entry = self.entries.popitem(last=False)
        self.used -= entry[0]
        return key, entry


class LRUBlockCache:
    """Byte-capacity LRU cache over posting-list blocks."""

    def __init__(self, capacity_bytes: int,
                 observer: Observer = NULL_OBSERVER) -> None:
        if capacity_bytes <= 0:
            raise ConfigurationError("cache capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self._lru = BlockLRU()
        self.hits = 0
        self.misses = 0
        self._observer = observer

    @property
    def used_bytes(self) -> int:
        return self._lru.used

    @property
    def num_blocks(self) -> int:
        return len(self._lru)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def access(self, term: str, block_index: int, size: int) -> bool:
        """Touch one block; returns True on a hit.

        The block is re-pushed at the size this access carries (a hit
        may differ from the insert, e.g. replayed traces from
        differently-compressed runs), so the byte accounting stays
        honest; a block larger than the whole cache is dropped.
        """
        if size < 0:
            raise ConfigurationError("negative block size")
        key = (term, block_index)
        lru = self._lru
        hit = lru.pop(key) is not None
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        if self._observer.enabled:
            self._observer.emit(BlockCacheAccess(hit, size))
        if size <= self.capacity_bytes:
            lru.push(key, size)
            while lru.used > self.capacity_bytes:
                lru.pop_lru()
        return hit


#: Default capacity (in blocks) of the fast path's decoded-block cache.
#: At 128 postings per block this retains about one million decoded
#: postings — small against index size, large against a query batch's
#: working set of hot terms.
DEFAULT_DECODED_CACHE_BLOCKS = 8192


class DecodedBlockCache:
    """LRU cache of decompressed blocks, keyed ``(term, block, scheme)``.

    Holds the fast path's decoded ``(docID array, tf array)`` pairs so
    repeated touches of a hot block skip decompression entirely.
    Capacity is counted in *blocks* (each is at most 128 postings), not
    bytes, since decoded blocks are near-uniform in size.

    Thread-safe: the batched query driver shares one instance across
    worker threads, so lookups and insertions take an internal lock.
    Cached arrays are treated as immutable by all readers.

    Functional-only by design — see the module docstring: modeled
    traffic/latency accounting happens in the cursor regardless of hits.
    """

    def __init__(self,
                 capacity_blocks: int = DEFAULT_DECODED_CACHE_BLOCKS) -> None:
        if capacity_blocks <= 0:
            raise ConfigurationError(
                "decoded cache capacity must be positive"
            )
        self.capacity_blocks = capacity_blocks
        self._lru = BlockLRU()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    @property
    def num_blocks(self) -> int:
        return len(self._lru)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def get(self, term: str, block_index: int, scheme: str):
        """Look up a decoded block; returns the pair or ``None``."""
        key = (term, block_index, scheme)
        # The fast path's per-block hit: one lookup and one
        # move_to_end on the core's map, no core method call.
        entries = self._lru.entries
        with self._lock:
            entry = entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            entries.move_to_end(key)
            self.hits += 1
        return entry[1]

    def put(self, term: str, block_index: int, scheme: str,
            decoded) -> None:
        """Insert a freshly decoded ``(doc_ids, tfs)`` pair."""
        key = (term, block_index, scheme)
        lru = self._lru
        with self._lock:
            lru.pop(key)
            lru.push(key, 1, decoded)
            while lru.used > self.capacity_blocks:
                lru.pop_lru()


@dataclass(frozen=True)
class CacheReport:
    """Outcome of replaying a fetch trace through the cache."""

    capacity_bytes: int
    hits: int
    misses: int
    #: Bytes served from DRAM (hits).
    dram_bytes: int
    #: Bytes that still went to SCM (misses).
    scm_bytes: int
    #: Miss bytes that stayed part of an unbroken sequential run — the
    #: record was engine-sequential *and* the immediately preceding
    #: miss was the same term's previous block (a hit punched out of
    #: the middle of a run restarts it: the device seeks again).
    scm_seq_bytes: int = 0
    #: Miss bytes charged at the Table I random-read rate.
    scm_rand_bytes: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def bytes_absorbed_fraction(self) -> float:
        total = self.dram_bytes + self.scm_bytes
        return self.dram_bytes / total if total else 0.0


class _ScmRuns:
    """The one run rule of the SCM side, with or without a cache: a fetch
    continues a sequential run only when the engine observed it as
    sequential *and* the device's previous SCM fetch was the same term's
    previous block. Everything else — skip landings, list starts, runs
    broken by a DRAM hit or another term — pays the random rate: a run's
    first block is its seek."""

    __slots__ = ("seq_bytes", "rand_bytes", "_last")

    def __init__(self) -> None:
        self.seq_bytes = self.rand_bytes = 0
        #: (term, block_index) of the immediately preceding SCM fetch.
        self._last: Optional[Tuple[str, int]] = None

    def fetch(self, term: str, block_index: int, size: int,
              pattern: AccessPattern) -> None:
        if (pattern is AccessPattern.SEQUENTIAL
                and self._last == (term, block_index - 1)):
            self.seq_bytes += size
        else:
            self.rand_bytes += size
        self._last = (term, block_index)

    def interrupt(self) -> None:
        """A fetch was served elsewhere: the next one restarts its run."""
        self._last = None


def _scm_read_seconds(seq_bytes: int, rand_bytes: int) -> float:
    return (OPTANE_NODE_4CH.read_time(seq_bytes, AccessPattern.SEQUENTIAL)
            + OPTANE_NODE_4CH.read_time(rand_bytes, AccessPattern.RANDOM))


class CacheSimulator:
    """Replays fetch traces through an LRU block cache; misses are charged
    at the *device-observed* pattern (:class:`_ScmRuns`), which a hit —
    served from DRAM — interrupts."""

    def __init__(self, capacity_bytes: int,
                 observer: Observer = NULL_OBSERVER) -> None:
        self._cache = LRUBlockCache(capacity_bytes, observer=observer)
        self._dram_bytes = 0
        self._scm = _ScmRuns()

    def replay(self, fetch_log: Iterable[FetchRecord]) -> None:
        """Feed one query's fetch records through the cache."""
        for term, block_index, size, pattern in fetch_log:
            if self._cache.access(term, block_index, size):
                self._dram_bytes += size
                self._scm.interrupt()
            else:
                self._scm.fetch(term, block_index, size, pattern)

    def report(self) -> CacheReport:
        return CacheReport(
            capacity_bytes=self._cache.capacity_bytes,
            hits=self._cache.hits,
            misses=self._cache.misses,
            dram_bytes=self._dram_bytes,
            scm_bytes=self._scm.seq_bytes + self._scm.rand_bytes,
            scm_seq_bytes=self._scm.seq_bytes,
            scm_rand_bytes=self._scm.rand_bytes,
        )


def uncached_memory_seconds(fetch_log: Iterable[FetchRecord]) -> float:
    """Block-fetch service time on the Table I SCM node with no cache
    tier at all: the same replay with nothing in front of the SCM, so a
    :class:`CacheSimulator` replay in which nothing hits costs exactly
    this, to the bit."""
    runs = _ScmRuns()
    for record in fetch_log:
        runs.fetch(*record)
    return _scm_read_seconds(runs.seq_bytes, runs.rand_bytes)


def cached_memory_seconds(report: CacheReport) -> float:
    """Block-fetch service time with a DDR4 cache tier in front of the
    Table I SCM node.

    Hits are scattered single-block DRAM lookups (random at DRAM's mild
    penalty); misses are charged at the pattern the replay observed.
    """
    return (
        DDR4_4CH.read_time(report.dram_bytes, AccessPattern.RANDOM)
        + _scm_read_seconds(report.scm_seq_bytes, report.scm_rand_bytes)
    )
