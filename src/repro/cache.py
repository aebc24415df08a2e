"""Block caches over one weighted LRU core.

Every block cache in the repository keeps its bookkeeping in one core,
:class:`BlockLRU`: an ordered ``key -> (weight, value)`` map, least
recently used first, with a running ``used`` weight. A cache is a
policy over it — what a block weighs and when to evict:

* :class:`DecodedBlockCache` — an entry is a whole decoded list
  weighing its block count (or a lone block weighing 1), capacity in
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
    """LRU cache of decompressed blocks, capacity counted in *blocks*.

    Holds the fast path's decoded ``(docID array, tf array)`` pairs so
    repeated touches of a hot block skip decompression entirely. An
    entry is one of two shapes in the one LRU core:

    * a **list** entry, keyed ``(term, scheme)``: every block of a list
      decoded in one pass (:meth:`prefill`), as ``{block: pair}``,
      weighing its block count. A cursor looks it up once
      (:meth:`decoded_list`) and then indexes its blocks, and it is
      recent or evicted as a whole — a miss re-decodes the whole list
      anyway;
    * a **block** entry, keyed ``(term, block, scheme)``, weighing 1:
      what :meth:`put` stores when the block's list is not resident
      whole (a list that does not decode whole, or a caller putting
      blocks one at a time).

    ``hits`` and ``misses`` count *blocks*: a :meth:`get` counts
    itself, and a cursor reading blocks out of a list entry reports
    them with :meth:`count_hits`.

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
        return self._lru.used

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def get(self, term: str, block_index: int, scheme: str):
        """Look up a decoded block; returns the pair or ``None``."""
        key = (term, block_index, scheme)
        entries = self._lru.entries
        with self._lock:
            entry = entries.get(key)
            if entry is not None:
                decoded = entry[1]
            else:
                key = (term, scheme)
                entry = entries.get(key)
                decoded = (None if entry is None
                           else entry[1].get(block_index))
            if decoded is None:
                self.misses += 1
                return None
            entries.move_to_end(key)
            self.hits += 1
        return decoded

    def decoded_list(self, term: str, scheme: str):
        """A list entry's ``{block: pair}``, made most recent, or None.

        Counts nothing: the caller counts a hit per block it reads from
        it (:meth:`count_hits`), and looks up a block it does not find
        with :meth:`get`.
        """
        key = (term, scheme)
        entries = self._lru.entries
        with self._lock:
            entry = entries.get(key)
            if entry is None:
                return None
            entries.move_to_end(key)
        return entry[1]

    def count_hits(self, blocks: int) -> None:
        """Count ``blocks`` hits read out of :meth:`decoded_list`."""
        with self._lock:
            self.hits += blocks

    def put(self, term: str, block_index: int, scheme: str,
            decoded) -> None:
        """Insert a freshly decoded ``(doc_ids, tfs)`` pair: into its
        list's entry when that holds the block, else as a block entry."""
        lru = self._lru
        entries = lru.entries
        with self._lock:
            key = (term, scheme)
            entry = entries.get(key)
            if entry is not None and block_index in entry[1]:
                entry[1][block_index] = decoded
                entries.move_to_end(key)
                return
            key = (term, block_index, scheme)
            lru.pop(key)
            lru.push(key, 1, decoded)
            while lru.used > self.capacity_blocks:
                lru.pop_lru()

    def prefill(self, term: str, scheme: str, decoded: Iterable) -> dict:
        """Insert a list decoded in one pass as one list entry.

        ``decoded`` yields ``(block_index, (doc_ids, tfs))``. A block
        already resident — in the list's entry or as a block entry — is
        kept as it is (its arrays, and so any score cache keyed on
        their identity, stay valid) and joins the list entry; the entry
        goes in at the MRU end, with the usual evictions. Nobody looked
        these blocks up, so neither ``hits`` nor ``misses`` moves — the
        caller's own lookup missed and is followed by its :meth:`put`
        of the block it asked for. Returns the entry's ``{block:
        pair}``.
        """
        blocks = dict(decoded)
        lru = self._lru
        key = (term, scheme)
        with self._lock:
            entry = lru.pop(key)
            if entry is not None:
                blocks.update(entry[1])
            for block_index in blocks:
                entry = lru.pop((term, block_index, scheme))
                if entry is not None:
                    blocks[block_index] = entry[1]
            lru.push(key, len(blocks), blocks)
            while lru.used > self.capacity_blocks:
                lru.pop_lru()
        return blocks
