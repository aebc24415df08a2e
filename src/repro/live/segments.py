"""The segmented live index: immutable segments + write buffer + stats.

:class:`SegmentedIndex` is the engine-facing face of the live index. It
layers mutability over the existing immutable machinery the way an LSM
tree does over sorted runs:

* adds land in a :class:`~repro.live.memseg.MemSegment` write buffer;
* sealing replays the buffer through :class:`~repro.index.builder.
  IndexBuilder` (hybrid codec selection, 128-posting blocks, 19-byte
  metadata — the full offline pipeline) into an immutable
  :class:`Segment` holding a *contiguous, never-reused* global docID
  interval, the same structure the cluster layer gives shards;
* deletes set a tombstone bit on the owning segment (buffered documents
  are simply dropped) and immediately update the live statistics;
* queries fan out across segments, each executed by a real
  :class:`~repro.core.engine.BossAccelerator` over the segment's
  compressed lists, then merge per-segment top-k exactly.

**Score identity.** Every segment scores with *global* BM25 statistics
(:mod:`repro.live.stats`): live N and per-term df drive IDF, live avgdl
drives the normalizers. A segment sealed at statistics version V has
byte-exact metadata while the corpus stays at V; once the corpus moves
on, the segment is *stale* — its baked IDFs and block max-scores no
longer match the live statistics, and an under-estimated block max
would make early termination drop true results. Stale segments are
therefore queried through a **view**: same compressed payloads, but
live IDFs and conservative per-block score bounds derived from the
per-block maximum term frequency recorded at seal time (an upper bound
for every live document, since the term score is monotone increasing in
tf and decreasing in the normalizer). The view is *lazy*: a statistics
version re-dresses only the lists a query asks for, at their first use
under that version.

**What a statistics version invalidates.** Each piece of per-segment
serving state lives as long as what it depends on. Payloads, and the
``(doc_ids, tfs)`` arrays decoded from them, depend on nothing a
mutation can change: each segment's engine and its decoded-block cache
live from ``_install`` to ``replace_segments``. IDFs, block bounds, the
scorer snapshot and the engine's block-score vectors depend on the
statistics: a version change drops all of them together
(:meth:`SegmentedIndex._engine_for`).

**Admission at the queue.** A query's top-k cutoff is one register, and
it travels: what the query has already found is a threshold for every
segment it has yet to search, and a tombstone is a fact known before the
segment starts. :meth:`SegmentedIndex.search` therefore

* scores the **write buffer first** — it is DRAM-resident and moves no
  device byte, so its hits are a free threshold;
* gives every segment ``k`` slots (not ``k`` plus its tombstone count),
  its tombstones as the queue's ``exclude`` set, and, once ``k`` live
  hits are held, ``floor = nextafter(k-th best live score so far,
  -inf)`` (:mod:`repro.core.topk`, "Admission");
* folds each segment's hits into the running best ``k`` by ``(-score,
  docID)`` — the same tie rule as the monolithic top-k queue and the
  cluster root.

The floor is **strictly below** the k-th best score because of that tie
rule: a later segment (or one searched after the buffer, which holds the
highest docIDs) may hold a document that ties the k-th best with a lower
docID, and it must get in for the merge to rank it first. A document
with a score at or under the floor has ``k`` documents above it and
cannot be in the answer, so the result is exact — bit-identical to
searching every segment for ``k + t`` from an empty queue and filtering
afterwards, the search ``tests/live/test_admission.py`` keeps as its
test-only reference.

What a tombstoned (or sub-floor) document costs: if it reaches the
scorer it is evaluated like any other — counted in ``docs_evaluated``,
charged its ``LD Score`` read, counted as a top-k offer — and then
refused. What it never does is occupy a queue slot, so the cutoff rises
as fast as on a clean index, early termination skips the blocks it would
skip there, and at most ``k`` entries per segment cross the
interconnect.
"""

from __future__ import annotations

import math
import threading
from collections import Counter
from dataclasses import replace
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.engine import BossAccelerator, BossConfig
from repro.core.query import (
    AndNode,
    QueryNode,
    TermNode,
    as_query,
    prune_query,
    prune_query_scored,
)
from repro.core.result import ScoredDocument, SearchResult, best_hits
from repro.core.topk import positive_k
from repro.errors import InvertedIndexError, QueryError
from repro.index.blocks import BLOCK_SIZE, Block
from repro.index.builder import IndexBuilder
from repro.index.index import (
    CompressedPostingList,
    DocumentStats,
    InvertedIndex,
)
from repro.live.memseg import MemSegment
from repro.live.stats import LiveStatistics
from repro.observability.observer import NULL_OBSERVER, Observer
from repro.scm.traffic import TrafficCounter
from repro.sim.metrics import WorkCounters


class Segment:
    """One immutable sealed segment plus its live-index bookkeeping."""

    def __init__(self, segment_id: int, index: InvertedIndex, tier: int,
                 stats_version: int, doc_lengths: Dict[int, int],
                 doc_terms: Dict[int, Tuple[str, ...]],
                 block_max_tfs: Dict[str, List[int]]) -> None:
        self.segment_id = segment_id
        self.index = index
        #: Merge-tier: 0 for a sealed buffer, max(inputs)+1 for a merge.
        self.tier = tier
        #: Statistics version the segment's metadata was baked at.
        self.stats_version = stats_version
        #: Global docID -> length, for every document in the payload.
        self.doc_lengths = doc_lengths
        #: Global docID -> distinct terms (the forward index; deletes
        #: need it to decrement live dfs).
        self.doc_terms = doc_terms
        #: Deleted docIDs still physically present in the payload.
        self.tombstones: Set[int] = set()
        #: Per-term, per-block maximum term frequency recorded at seal
        #: time — the input for conservative stale-view score bounds.
        self.block_max_tfs = block_max_tfs
        #: Byte offset of this segment's region inside the shared pool
        #: (assigned when the segment is installed).
        self.pool_base = 0

    def publish_metrics(self, registry) -> None:
        """A write-buffer seal, as the scheduler emits it: the segment
        just sealed is the event."""
        registry.counter(
            "live.seals", "write-buffer seals into tier-0 segments"
        ).inc()
        registry.counter(
            "live.seal_bytes", "sequential ST Index bytes from seals"
        ).inc(self.nbytes)
        registry.counter(
            "live.sealed_docs", "documents moved buffer -> segment"
        ).inc(self.num_docs)

    @property
    def num_docs(self) -> int:
        """Documents physically present (live + tombstoned)."""
        return len(self.doc_lengths)

    @property
    def live_docs(self) -> int:
        return len(self.doc_lengths) - len(self.tombstones)

    @property
    def min_doc_id(self) -> int:
        return min(self.doc_lengths)

    @property
    def nbytes(self) -> int:
        """Segment footprint: compressed payloads + block metadata."""
        total = 0
        for term in self.index.terms:
            posting_list = self.index.posting_list(term)
            total += posting_list.compressed_bytes
            total += posting_list.metadata_bytes
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Segment id={self.segment_id} tier={self.tier} "
            f"docs={self.live_docs}/{self.num_docs} bytes={self.nbytes}>"
        )


def build_segment(segment_id: int, tier: int,
                  postings_by_term: Dict[str, Sequence[Tuple[int, int]]],
                  doc_lengths: Dict[int, int],
                  doc_terms: Dict[int, Tuple[str, ...]],
                  stats: LiveStatistics,
                  schemes: Optional[Sequence[str]] = None) -> Segment:
    """Seal postings (global docIDs) into an immutable :class:`Segment`.

    The compressed output is byte-identical to a fresh
    :class:`~repro.index.builder.IndexBuilder` build of the same
    postings under the same statistics: codec selection depends only on
    the d-gap stream, and the scorer/IDF inputs are snapshots of the
    live corpus statistics.
    """
    if not postings_by_term:
        raise InvertedIndexError("cannot seal an empty segment")
    builder = IndexBuilder(params=stats.params, schemes=schemes,
                           global_stats=stats.global_statistics(),
                           scorer=stats.scorer())
    block_max_tfs: Dict[str, List[int]] = {}
    for term in sorted(postings_by_term):
        postings = list(postings_by_term[term])
        builder.add_postings(term, postings)
        block_max_tfs[term] = [
            max(tf for _doc, tf in postings[start:start + BLOCK_SIZE])
            for start in range(0, len(postings), BLOCK_SIZE)
        ]
    index = builder.build()
    return Segment(
        segment_id=segment_id,
        index=index,
        tier=tier,
        stats_version=stats.version,
        doc_lengths=dict(doc_lengths),
        doc_terms=dict(doc_terms),
        block_max_tfs=block_max_tfs,
    )


# prune_query / prune_query_scored now live in repro.core.query (the
# algebra is shared with the cluster root's per-shard dissection);
# imported above and re-exported here for compatibility.


class _StaleSegmentView:
    """A stale segment's index under one statistics version, dressed
    lazily.

    Duck-types the :class:`~repro.index.index.InvertedIndex` read API
    the engines consume. Payloads, blocks and regions are shared with
    the sealed index; only the score metadata is replaced, one list at
    its first use: live IDF, and per-block upper bounds computed from
    the recorded per-block max term frequency against the smallest
    possible live normalizer. Those bounds can only be *looser* than
    the true live maxima, which early termination tolerates (it skips
    less), never tighter (which would drop results).

    A view belongs to the version it was created at: the memo is never
    carried over, and dressing a list once the statistics have moved on
    is an error rather than a silent mix of two versions.
    """

    def __init__(self, segment: Segment, stats: LiveStatistics) -> None:
        self._sealed = segment.index
        self._block_max_tfs = segment.block_max_tfs
        self._live_stats = stats
        self._version = stats.version
        self._scorer = stats.scorer()
        self._min_norm = stats.min_normalizer()
        self._k1 = stats.params.k1
        self._document_stats = DocumentStats(
            num_docs=self._scorer.id_space,
            avgdl=self._scorer.avgdl,
            total_tokens=stats.total_tokens,
        )
        #: term -> dressed list. Written under races by concurrent
        #: searches; every writer stores bit-equal values.
        self._dressed: Dict[str, CompressedPostingList] = {}

    @property
    def scorer(self):
        return self._scorer

    @property
    def layout(self):
        return self._sealed.layout

    @property
    def stats(self) -> DocumentStats:
        return self._document_stats

    @property
    def num_terms(self) -> int:
        return self._sealed.num_terms

    @property
    def terms(self) -> List[str]:
        return self._sealed.terms

    def __contains__(self, term: str) -> bool:
        return term in self._sealed

    def __iter__(self) -> Iterator[str]:
        return iter(self._sealed)

    def posting_list(self, term: str) -> CompressedPostingList:
        dressed = self._dressed.get(term)
        if dressed is None:
            dressed = self._dressed[term] = self._dress(term)
        return dressed

    def _dress(self, term: str) -> CompressedPostingList:
        sealed = self._sealed.posting_list(term)
        if self._live_stats.version != self._version:
            raise InvertedIndexError(
                f"stale view of version {self._version} asked to dress "
                f"{term!r} at version {self._live_stats.version}"
            )
        idf = self._live_stats.idf(term)
        min_norm = self._min_norm
        k1 = self._k1
        blocks: List[Block] = []
        list_max = 0.0
        for block, tf_max in zip(sealed.blocks, self._block_max_tfs[term]):
            bound = idf * (tf_max * (k1 + 1.0)) / (tf_max + min_norm)
            blocks.append(Block(
                metadata=replace(block.metadata, max_term_score=bound),
                doc_payload=block.doc_payload,
                tf_payload=block.tf_payload,
            ))
            list_max = max(list_max, bound)
        return CompressedPostingList(
            term=term,
            scheme=sealed.scheme,
            blocks=blocks,
            document_frequency=sealed.document_frequency,
            idf=idf,
            max_term_score=list_max,
            region=sealed.region,
        )


class _PoolLayout:
    """Aggregate address-space view over every sealed segment."""

    def __init__(self, segmented: "SegmentedIndex") -> None:
        self._segmented = segmented

    @property
    def allocated_bytes(self) -> int:
        return sum(
            segment.index.layout.allocated_bytes
            for segment in self._segmented.segments
        )


class SegmentedIndex:
    """LSM-style mutable index presenting the engine read API.

    Satisfies the duck type engines and sessions consume — ``search``,
    ``posting_list``/``comp_types`` (for the offloading API's
    ``compType`` array), ``layout``, ``terms``, ``in`` — while
    supporting ``add_document`` / ``delete_document`` / ``seal`` /
    ``replace_segments`` underneath.

    Each installed segment has one engine for its whole life, and with
    it one decoded-block cache: a mutation re-dresses the scalars a
    query asks for (:class:`_StaleSegmentView`), never a segment, and
    never decodes a payload twice. Searches may run concurrently with
    each other (not with mutations).
    """

    def __init__(self, params=None, schemes: Optional[Sequence[str]] = None,
                 buffer_docs: int = 256,
                 buffer_bytes: Optional[int] = None,
                 observer: Observer = NULL_OBSERVER) -> None:
        self.stats = LiveStatistics(params)
        self.memseg = MemSegment(max_docs=buffer_docs,
                                 max_bytes=buffer_bytes)
        self.segments: List[Segment] = []
        self._schemes = list(schemes) if schemes is not None else None
        self._config = BossConfig()
        self._observer = observer
        self._next_segment_id = 0
        #: segment_id -> (stats version the engine's index view was
        #: dressed at, engine). One engine — and with it one decoded-
        #: block cache — per installed segment, for the segment's life.
        self._engines: Dict[int, Tuple[int, BossAccelerator]] = {}
        self._refresh_lock = threading.Lock()
        self._pool_cursor = 0
        self.layout = _PoolLayout(self)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add_document(self, tokens: Sequence[str]) -> int:
        """Buffer one document; returns its global docID."""
        token_list = list(tokens)
        if not token_list:
            raise InvertedIndexError("cannot index an empty document")
        tfs = Counter(token_list)
        doc_id = self.stats.allocate(len(token_list), tfs.keys())
        self.memseg.add(doc_id, tfs, len(token_list))
        return doc_id

    def delete_document(self, doc_id: int) -> None:
        """Delete by global docID (tombstone or buffer drop)."""
        if doc_id in self.memseg:
            _length, tfs = self.memseg.remove(doc_id)
            self.stats.remove(doc_id, tfs.keys())
            return
        for segment in self.segments:
            if doc_id in segment.doc_lengths:
                if doc_id in segment.tombstones:
                    raise InvertedIndexError(
                        f"docID {doc_id} already deleted"
                    )
                segment.tombstones.add(doc_id)
                self.stats.remove(doc_id, segment.doc_terms[doc_id])
                return
        raise InvertedIndexError(f"docID {doc_id} not in the live index")

    def seal(self) -> Optional[Segment]:
        """Seal the write buffer into a new tier-0 segment.

        Returns the new segment, or ``None`` when the buffer is empty.
        Sealing moves no statistics (the buffered documents were already
        live), so a segment sealed now is *fresh*: its baked metadata is
        exact until the next add or delete.
        """
        if len(self.memseg) == 0:
            return None
        doc_lengths = {
            doc_id: self.memseg.length_of(doc_id)
            for doc_id in self.memseg.doc_ids()
        }
        doc_terms = {
            doc_id: self.memseg.terms_of(doc_id)
            for doc_id in self.memseg.doc_ids()
        }
        postings = self.memseg.postings_by_term()
        self.memseg.drain()
        segment = build_segment(
            self._next_segment_id, 0, postings, doc_lengths, doc_terms,
            self.stats, schemes=self._schemes,
        )
        self._next_segment_id += 1
        self._install(segment)
        return segment

    def replace_segments(self, inputs: Sequence[Segment],
                         merged: Optional[Segment]) -> None:
        """Atomically swap merge inputs for their compacted output.

        ``merged`` may be ``None`` when every input document was
        tombstoned — the inputs are simply dropped.
        """
        input_ids = {segment.segment_id for segment in inputs}
        survivors = [
            segment for segment in self.segments
            if segment.segment_id not in input_ids
        ]
        if len(survivors) != len(self.segments) - len(input_ids):
            raise InvertedIndexError("merge inputs not all installed")
        for segment in inputs:
            self._engines.pop(segment.segment_id, None)
        self.segments = survivors
        if merged is not None:
            self._install(merged)

    def next_segment_id(self) -> int:
        """Allocate a segment id (used by the merge path)."""
        segment_id = self._next_segment_id
        self._next_segment_id += 1
        return segment_id

    def claim_recovered_id(self, segment_id: int) -> None:
        """Consume the next segment id for a recovered (loaded) segment.

        Recovery loads segments from durable files instead of building
        them, but the id sequence must advance exactly as it did in the
        original run — a mismatch means the WAL and the in-memory
        replay have diverged, which is a corruption, not a crash.
        """
        if segment_id != self._next_segment_id:
            raise InvertedIndexError(
                f"recovered segment id {segment_id} != expected "
                f"{self._next_segment_id} — WAL and replay diverged"
            )
        self._next_segment_id += 1

    def install_recovered_seal(self, segment: Segment) -> None:
        """Install a durably-loaded seal in place of :meth:`seal`.

        The write buffer must hold exactly the documents the segment
        persists (replay put them there); they are drained without
        rebuilding, since the loaded payload is already the sealed
        bytes.
        """
        if set(segment.doc_lengths) != set(self.memseg.doc_ids()):
            raise InvertedIndexError(
                f"recovered segment {segment.segment_id} holds "
                f"{sorted(segment.doc_lengths)[:5]}... but the replayed "
                f"buffer holds {self.memseg.doc_ids()[:5]}..."
            )
        self.claim_recovered_id(segment.segment_id)
        self.memseg.drain()
        self._install(segment)

    def _install(self, segment: Segment) -> None:
        segment.pool_base = self._pool_cursor
        self._pool_cursor += segment.index.layout.allocated_bytes
        self.segments.append(segment)
        self.segments.sort(key=lambda s: s.min_doc_id)
        self._engines[segment.segment_id] = (
            segment.stats_version,
            BossAccelerator(segment.index, self._config,
                            observer=self._observer),
        )

    # ------------------------------------------------------------------
    # Read API
    # ------------------------------------------------------------------

    @property
    def num_docs(self) -> int:
        """Live document count."""
        return self.stats.num_docs

    @property
    def num_segments(self) -> int:
        return len(self.segments)

    @property
    def schemes(self) -> Optional[List[str]]:
        """Codec candidates every seal/merge builds with."""
        return None if self._schemes is None else list(self._schemes)

    @property
    def terms(self) -> List[str]:
        """Live vocabulary (terms with at least one surviving doc)."""
        return self.stats.terms

    def __contains__(self, term: str) -> bool:
        return self.stats.df(term) > 0

    def posting_list(self, term: str) -> CompressedPostingList:
        """Newest sealed posting list for ``term``.

        The buffer is not compressed, so a term living only there has
        no list; sessions treat such terms as host-resident.
        """
        for segment in reversed(self.segments):
            if term in segment.index:
                return segment.index.posting_list(term)
        raise InvertedIndexError(f"term {term!r} has no sealed postings")

    def comp_types(self, terms: Sequence[str]) -> List[str]:
        """``compType`` array over sealed lists (buffer-only terms are
        skipped: their postings are host-resident and uncompressed)."""
        schemes = []
        for term in terms:
            try:
                schemes.append(self.posting_list(term).scheme)
            except InvertedIndexError:
                continue
        return schemes

    def list_address(self, term: str) -> int:
        """Pool-absolute base address of the newest list for ``term``."""
        for segment in reversed(self.segments):
            if term in segment.index:
                region = segment.index.posting_list(term).region
                return segment.pool_base + region.base
        raise InvertedIndexError(f"term {term!r} has no sealed postings")

    def oldest_live_doc(self) -> Optional[int]:
        """Lowest live docID (the churn victim for sliding-window
        workloads); ``None`` when the index is empty."""
        for segment in self.segments:
            live = [
                doc_id for doc_id in segment.doc_lengths
                if doc_id not in segment.tombstones
            ]
            if live:
                return min(live)
        buffered = self.memseg.doc_ids()
        return buffered[0] if buffered else None

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------

    def search(self, query, k: Optional[int] = None) -> SearchResult:
        """Fan one query across segments + buffer; merge top-k exactly."""
        node = as_query(query)
        missing = [t for t in node.terms() if self.stats.df(t) <= 0]
        if missing:
            raise QueryError(f"terms not in index: {missing}")
        effective_k = positive_k(self._config.k if k is None else k)

        traffic = TrafficCounter()
        work = WorkCounters()
        interconnect = 0
        # The write buffer first: it is DRAM-resident and costs no
        # device traffic, so its hits are a free threshold for every
        # segment that follows.
        hits = self._buffer_hits(node, effective_k)

        for segment in self.segments:
            pruned = prune_query_scored(node,
                                        lambda t, s=segment: t in s.index)
            if pruned is None:
                continue
            # Strictly below the k-th best so far: the merge orders by
            # (-score, docID), so an equal score with a lower docID must
            # still get in.
            floor = (math.nextafter(hits[-1].score, -math.inf)
                     if len(hits) == effective_k else None)
            result = self._engine_for(segment).search(
                pruned, k=effective_k, floor=floor,
                exclude=segment.tombstones)
            traffic.merge(result.traffic)
            work.merge(result.work)
            interconnect += result.interconnect_bytes
            if result.hits:
                hits = best_hits(hits + result.hits, effective_k)

        return SearchResult(
            query=node,
            hits=hits,
            traffic=traffic,
            work=work,
            interconnect_bytes=interconnect,
        )

    def _engine_for(self, segment: Segment) -> BossAccelerator:
        """The segment's engine, serving the current statistics version.

        The engine and its decoded-block cache were created when the
        segment was installed and stay until it is merged away: decoded
        ``(doc_ids, tfs)`` arrays depend only on the immutable payload.
        What depends on statistics is swapped as one unit when the
        version moved since the engine last served: it is rebound to a
        new lazy :meth:`_stale_view` (IDFs, block bounds, scorer), which
        also drops its block-score vectors. A segment still at its seal
        version serves its baked index as is.
        """
        version = self.stats.version
        dressed_at, engine = self._engines[segment.segment_id]
        if dressed_at == version:
            return engine
        with self._refresh_lock:
            dressed_at, engine = self._engines[segment.segment_id]
            if dressed_at != version:
                engine._rebind(self._stale_view(segment))
                self._engines[segment.segment_id] = (version, engine)
        return engine

    def _stale_view(self, segment: Segment) -> _StaleSegmentView:
        """A stale segment re-dressed, list by list on demand, with the
        live statistics of the current version."""
        return _StaleSegmentView(segment, self.stats)

    def _buffer_hits(self, node: QueryNode,
                     k: int) -> List[ScoredDocument]:
        """Brute-force the write buffer (DRAM-resident, no SCM traffic).

        Matching and scoring mirror the engines: boolean membership over
        the query tree, score summed over every query term present in
        the document, with live IDFs and live normalizers.
        """
        if len(self.memseg) == 0:
            return []
        # Distinct terms in query order: a score is summed in this order,
        # so it is a function of the query and not of string hashing (a
        # set here moved a buffered document's last bit between runs).
        per_term: Dict[str, Dict[int, int]] = {
            term: {} for term in node.terms()}
        for doc_id, tfs in self.memseg.items():
            for term, postings in per_term.items():
                tf = tfs.get(term, 0)
                if tf > 0:
                    postings[doc_id] = tf

        def matching(n: QueryNode) -> Set[int]:
            if isinstance(n, TermNode):
                return set(per_term[n.term])
            child_sets = [matching(child) for child in n.children]
            if isinstance(n, AndNode):
                out = child_sets[0]
                for child_set in child_sets[1:]:
                    out = out & child_set
                return out
            out = set()
            for child_set in child_sets:
                out |= child_set
            return out

        scorer = self.stats.scorer()

        def score(doc_id: int) -> float:
            return sum(
                scorer.term_score(self.stats.idf(term), tf_map[doc_id],
                                  doc_id)
                for term, tf_map in per_term.items()
                if doc_id in tf_map
            )

        return best_hits(
            ((doc_id, score(doc_id)) for doc_id in matching(node)), k)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<SegmentedIndex docs={self.num_docs} "
            f"segments={len(self.segments)} "
            f"buffered={len(self.memseg)}>"
        )
