"""Block caches over one weighted LRU core.

Every block cache in the repository keeps its bookkeeping in one core,
:class:`BlockLRU`: an ordered ``key -> (weight, value)`` map, least
recently used first, with a running ``used`` weight. A cache is a
policy over it — what a block weighs and when to evict:

* :class:`DecodedBlockCache` — weight 1 per decoded block, capacity in
  blocks, behind a lock (see below).
* :class:`repro.ioplanner.tier.DramTier` — the one simulated DRAM tier
  in front of SCM (an extension study; the paper cites compressed
  inverted-list caching, [73]): three cores (cold, warm, hot); hits
  promote a block one core up, over-full upper cores demote their LRU
  tail down, and capacity pressure evicts cold first.
* a flat byte-weighted LRU over one core, kept only for a benchmark
  probe (see its class).

:class:`DecodedBlockCache` is the host-side *decoded*-block cache used
by the fast query path: already-decompressed ``(docID array, tf
array)`` pairs. Unlike the simulated DRAM tier, this cache is purely a
wall-clock optimization — the performance model still charges the full
modeled SCM traffic and decompression work for every block touch, so
modeled metrics are bit-identical with the cache on or off.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable, Iterable, Optional, Tuple

from repro.errors import ConfigurationError


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
    """Byte-capacity LRU cache over posting-list blocks.

    Nothing in the package uses it: it is kept only because the
    benchmark harness's probe (``benchmarks/harness/probes.py``) times
    it, as ``Codec.decode_block_columnar`` is kept for the same probe.
    ROADMAP item 1(b) deletes it together with that probe; the
    simulated DRAM tier is :class:`repro.ioplanner.tier.DramTier`.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ConfigurationError("cache capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self._lru = BlockLRU()
        self.hits = 0
        self.misses = 0

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

    Thread-safe: threads searching one engine share one instance, so
    lookups and insertions take an internal lock. Cached arrays are
    treated as immutable by all readers.

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

    def prefill(self, term: str, scheme: str, decoded: Iterable) -> None:
        """Insert the other blocks of a list decoded in one pass.

        ``decoded`` yields ``(block_index, (doc_ids, tfs))``. A block
        already resident is left as it is (its arrays, and so any
        score cache keyed on their identity, stay valid); the rest go
        in at the MRU end, with the usual evictions. Nobody looked
        these blocks up, so neither ``hits`` nor ``misses`` moves —
        the caller's own lookup missed and is followed by its
        :meth:`put` of the block it asked for.
        """
        lru = self._lru
        entries = lru.entries
        with self._lock:
            for block_index, pair in decoded:
                key = (term, block_index, scheme)
                if key not in entries:
                    lru.push(key, 1, pair)
            while lru.used > self.capacity_blocks:
                lru.pop_lru()
