"""Accounting posting-list cursor: the block fetch module's data path.

A :class:`ListCursor` walks one compressed posting list exactly the way
the paper's block fetch module does:

* the per-block *metadata* array (19 B records) is always available and
  cheap to inspect — inspections are counted but cost only metadata
  bytes. Because the metadata stores each block's first docID
  *uncompressed*, the cursor can report its current docID (sID) at a
  block boundary without fetching the payload;
* a block's *payload* is fetched from SCM and decompressed only when the
  cursor needs a position strictly inside it, or a term frequency
  (``blocks_fetched``, ``LD List`` traffic, ``postings_decoded``);
* blocks passed over without decoding are counted as skipped, attributed
  to whichever unit decided the skip (the overlap check unit or the
  score-estimation/ET unit) via the cursor's ``skip_class``.

The invariant is: *an undecoded current block always has the cursor at
its first posting*, whose docID is the metadata's first-docID field.

A cursor pays its bookkeeping per list, not per block. Work counters
move at each block transition, but the ``LD List`` traffic is a tally
(metadata blocks in ``WorkCounters.metadata_inspected``, payload bytes
in the cursor) that :func:`settle` writes as the query's one ``LD
List`` record when the query is done; and on the production path the
cursor looks its list up in the decoded-block cache once, then indexes
the list's blocks (:class:`repro.cache.DecodedBlockCache`). The fetch
log stays per block.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional, Sequence, Tuple

from repro.errors import CompressionError, SimulationError
from repro.index.blocks import BLOCK_METADATA_BYTES
from repro.index.index import CompressedPostingList
from repro.scm.traffic import AccessClass, AccessPattern, TrafficCounter
from repro.sim.metrics import WorkCounters

#: How a skipped block is attributed in the work counters.
SKIP_OVERLAP = "overlap"
SKIP_ET = "et"
SKIP_NONE = "none"


class ListCursor:
    """Lazy, accounting cursor over one compressed posting list."""

    __slots__ = ("_fetch_log", "_list", "_work", "_traffic",
                 "_skip_class", "_block_index", "_position",
                 "_decoded_doc_ids", "_decoded_tfs", "_lasts", "_firsts",
                 "_metadata_read_upto", "_decoded_cache",
                 "_last_fetched_block", "_num_blocks", "_payload_bytes",
                 "_decoded_blocks", "_cache_hits")

    def __init__(self, posting_list: CompressedPostingList,
                 work: WorkCounters, traffic: TrafficCounter,
                 skip_class: str = SKIP_NONE,
                 fetch_log: Optional[list] = None,
                 decoded_cache=None) -> None:
        if skip_class not in (SKIP_OVERLAP, SKIP_ET, SKIP_NONE):
            raise SimulationError(f"unknown skip class {skip_class!r}")
        #: Optional trace of payload fetches as
        #: :data:`~repro.scm.traffic.FetchRecord` tuples — the list the
        #: engine's :func:`~repro.core.engine.recording_fetches` scope
        #: keeps for it. A record's pattern is
        #: the *observed* spatial pattern of this cursor's walk: a fetch
        #: that continues the previous fetched block is sequential, a
        #: fetch that lands after a metadata-guided skip (or starts the
        #: list anywhere but block 0) is random.
        self._fetch_log = fetch_log
        self._list = posting_list
        self._num_blocks = posting_list.num_blocks
        self._work = work
        self._traffic = traffic
        self._skip_class = skip_class
        self._block_index = 0
        self._position = 0
        self._decoded_doc_ids: Optional[Sequence[int]] = None
        self._decoded_tfs: Optional[Sequence[int]] = None
        #: The list's block first/last-docID columns (shared, not
        #: copied): the skip search structure.
        self._lasts = posting_list.lasts
        self._firsts = posting_list.firsts
        #: Highest block index whose metadata was charged so far.
        self._metadata_read_upto = -1
        #: Index of the last payload the fetch log recorded (-1 = none
        #: yet; block 0 then counts as the sequential start of the stream).
        self._last_fetched_block = -1
        #: Host-side :class:`repro.cache.DecodedBlockCache`: the
        #: production path. None takes the per-value reference decoder.
        self._decoded_cache = decoded_cache
        #: The list's decoded blocks, ``{block: (doc_ids, tfs)}``, as
        #: the cache held them at this cursor's first decode (None: not
        #: looked up yet), and the blocks read out of them since.
        self._decoded_blocks: Optional[dict] = None
        self._cache_hits = 0
        #: Payload bytes fetched so far: :func:`settle` writes them.
        self._payload_bytes = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def posting_list(self) -> CompressedPostingList:
        return self._list

    @property
    def term(self) -> str:
        return self._list.term

    @property
    def exhausted(self) -> bool:
        return self._block_index >= self._num_blocks

    @property
    def list_max_score(self) -> float:
        """Whole-list score bound (the WAND lookup-table value)."""
        return self._list.max_term_score

    @property
    def idf(self) -> float:
        return self._list.idf

    def current_doc(self) -> Optional[int]:
        """DocID under the cursor.

        Free of payload traffic at block boundaries: the metadata's first
        docID *is* the block's first posting.
        """
        if self.exhausted:
            return None
        if self._decoded_doc_ids is not None:
            return self._decoded_doc_ids[self._position]
        self._charge_metadata(self._block_index)
        return self._firsts[self._block_index]

    def current_tf(self) -> int:
        """Term frequency under the cursor; forces the payload fetch."""
        if self.exhausted:
            raise SimulationError(f"cursor for {self.term!r} exhausted")
        self._ensure_decoded()
        return self._decoded_tfs[self._position]

    def peek_block_at(self, doc_id: int,
                      window: int = 1) -> Optional[Tuple[float, int]]:
        """Metadata-only lookup used by the score-estimation unit.

        Returns ``(max_term_score, last_doc_id)`` over the *interval* of
        ``window`` consecutive blocks starting at the block that would
        contain the first posting >= ``doc_id`` (searching forward from
        the current block), or None if the list ends before it. The
        cursor does not move.

        ``window > 1`` models the paper's longer pruning intervals
        ("BOSS uses longer intervals to minimize the delay between
        adjacent block load requests", Section VI): the bound gets
        looser (max over more blocks) but each successful skip jumps
        further and touches less metadata.
        """
        if self.exhausted:
            return None
        index = bisect_left(self._lasts, doc_id, self._block_index)
        if index >= len(self._lasts):
            return None
        end = min(len(self._lasts), index + max(1, window))
        self._charge_metadata(end - 1)
        return max(self._list.block_max[index:end]), self._lasts[end - 1]

    # ------------------------------------------------------------------
    # Movement
    # ------------------------------------------------------------------

    def step(self) -> None:
        """Advance one posting within the stream."""
        if self.exhausted:
            raise SimulationError(f"cursor for {self.term!r} exhausted")
        self._ensure_decoded()
        self._position += 1
        if self._position >= len(self._decoded_doc_ids):
            self._enter_block(self._block_index + 1)

    def advance_to(self, target: int) -> Optional[int]:
        """Move to the first posting with docID >= ``target``.

        Blocks whose metadata proves they end before ``target`` are
        passed without fetching (counted as skips); if the landing
        block's first docID is already >= ``target``, the payload fetch
        is deferred too. Returns the docID the cursor lands on, or None
        when the list is exhausted.

        A target inside the already-decoded block is one in-block binary
        seek (``bisect_left`` over <= 128 docIDs) with no modeled effect;
        the production executors inline exactly this case and call here
        only when a block boundary is crossed.
        """
        ids = self._decoded_doc_ids
        if ids is not None:
            position = self._position
            if ids[position] >= target:
                return ids[position]
            if ids[-1] >= target:
                self._position = position = bisect_left(
                    ids, target, position + 1
                )
                return ids[position]
            self._enter_block(self._block_index + 1)

        # Metadata-guided block skip: the landing block is the first
        # whose last docID reaches the target. Every block up to it has
        # its metadata inspected, and every block before it is skipped.
        index = self._block_index
        num_blocks = self._num_blocks
        if index >= num_blocks:
            return None
        landing = bisect_left(self._lasts, target, index)
        self._charge_metadata(min(landing, num_blocks - 1))
        if landing > index:
            self._enter_block(landing, skipped=landing - index)
            if landing == num_blocks:
                return None
        # Landing block: fetch only if the target is strictly inside it.
        if self._firsts[self._block_index] >= target:
            return self._firsts[self._block_index]
        self._ensure_decoded()
        self._position = bisect_left(self._decoded_doc_ids, target)
        return self._decoded_doc_ids[self._position]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _enter_block(self, new_index: int, skipped: int = 0) -> None:
        """Move to the start of block ``new_index``, ``skipped`` blocks
        passed over undecoded on the way."""
        if skipped:
            if self._skip_class == SKIP_OVERLAP:
                self._work.blocks_skipped_overlap += skipped
            elif self._skip_class == SKIP_ET:
                self._work.blocks_skipped_et += skipped
        self._block_index = new_index
        self._position = 0
        self._decoded_doc_ids = None
        self._decoded_tfs = None

    def _ensure_decoded(self) -> None:
        if self._decoded_doc_ids is not None:
            return
        if self.exhausted:
            raise SimulationError(f"cursor for {self.term!r} exhausted")
        plist, index = self._list, self._block_index
        self._charge_metadata(index)
        # Functional decode: the production path reads the block out of
        # the list's decoded-cache entry, looked up once per cursor, and
        # decodes the whole list on a miss; a cursor with no cache runs
        # the per-value reference decoder. How the arrays are *obtained*
        # is a host-side wall-clock concern only.
        cache = self._decoded_cache
        if cache is None:
            postings = plist.decode_block(index)
            decoded = ([p.doc_id for p in postings],
                       [p.tf for p in postings])
        else:
            blocks = self._decoded_blocks
            if blocks is None:
                blocks = self._decoded_blocks = (
                    cache.decoded_list(plist.term, plist.scheme) or {}
                )
            decoded = blocks.get(index)
            if decoded is not None:
                self._cache_hits += 1
            else:
                decoded = cache.get(plist.term, index, plist.scheme)
                if decoded is None:
                    decoded = self._decode_list(cache)
        self._decoded_doc_ids, self._decoded_tfs = decoded
        # Modeled accounting is unconditional — the simulated accelerator
        # fetches and decompresses this block regardless of what the
        # host-side decoded cache served, so every modeled metric is
        # bit-identical with the cache/fast path on or off.
        nbytes = plist.ends[index] - plist.starts[index]
        self._work.blocks_fetched += 1
        self._work.postings_decoded += plist.counts[index]
        self._payload_bytes += nbytes
        if self._fetch_log is not None:
            # The observed pattern of *this* fetch: sequential only when
            # it continues the previous fetched block (block 0 counts as
            # the sequential start of the stream). The aggregate device
            # model (:func:`settle`) counts every payload as sequential —
            # the accelerator's block fetch module streams
            # metadata-directed loads ahead of demand — but the
            # serving-layer cache/planner studies replay per-block demand
            # fetches, where a skip landing is a random read.
            fetched_pattern = (AccessPattern.SEQUENTIAL
                               if index == self._last_fetched_block + 1
                               else AccessPattern.RANDOM)
            self._last_fetched_block = index
            self._fetch_log.append((plist.term, index, nbytes,
                                    fetched_pattern))

    def _decode_list(self, cache) -> Tuple[Sequence[int], Sequence[int]]:
        """A decoded-cache miss: decode the whole list in one pass, put
        it in as one entry and ``put`` the demanded block (a cold pass
        goes on to decode nearly every block of the lists it touches;
        see ``docs/columnar.md``, "The list decoder"); the cursor reads
        its later blocks out of that entry. A list that does not decode
        whole — some block is corrupt — falls back to the demanded block
        alone, which raises exactly when that block is the corrupt one,
        and prefills nothing."""
        index = self._block_index
        plist = self._list
        try:
            blocks = plist.decode_arrays()
        except CompressionError:
            decoded = plist.decode_block_arrays(index)
        else:
            self._decoded_blocks = cache.prefill(
                plist.term, plist.scheme, enumerate(blocks))
            decoded = self._decoded_blocks[index]
        cache.put(plist.term, index, plist.scheme, decoded)
        return decoded

    def _charge_metadata(self, block_index: int) -> None:
        """Inspect metadata records up to ``block_index``, each once, in
        order: 19 bytes of contiguous, sequential reads apiece, which
        :func:`settle` writes from ``WorkCounters.metadata_inspected``."""
        if block_index > self._metadata_read_upto:
            self._work.metadata_inspected += (block_index
                                              - self._metadata_read_upto)
            self._metadata_read_upto = block_index


def settle(cursors: Sequence[ListCursor]) -> None:
    """Write what one query's cursors tallied.

    The cursors are one query's: they share its
    :class:`~repro.sim.metrics.WorkCounters`,
    :class:`~repro.scm.traffic.TrafficCounter` and decoded-block cache,
    and nothing else moved those work counters' metadata and fetch
    counts. The query's ``LD List`` traffic is one sequential record:
    19 bytes per inspected metadata record plus every fetched payload,
    one access per record and per payload. The blocks the cursors read
    out of their lists' cache entries count as the cache's hits. Call
    it once, when the query is done.
    """
    if not cursors:
        return
    work = cursors[0]._work
    accesses = work.metadata_inspected + work.blocks_fetched
    if accesses:
        cursors[0]._traffic.record(
            AccessClass.LD_LIST, AccessPattern.SEQUENTIAL,
            BLOCK_METADATA_BYTES * work.metadata_inspected
            + sum(cursor._payload_bytes for cursor in cursors),
            accesses=accesses,
        )
    hits = sum(cursor._cache_hits for cursor in cursors)
    if hits:
        cursors[0]._decoded_cache.count_hits(hits)
