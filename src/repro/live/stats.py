"""Corpus-wide live statistics for the mutable (LSM-style) index.

BM25 is a *global* function: IDF depends on the live document count and
each term's live document frequency, and every length normalizer depends
on the live average document length. A segmented index that scored each
segment with segment-local statistics would rank differently from a
monolithic index over the same documents — the exact bug the cluster
layer already avoids by distributing :class:`~repro.index.builder.
GlobalStatistics` to shard builders.

:class:`LiveStatistics` is the mutable analogue: one instance tracks the
whole live corpus (buffer + every sealed segment) as documents are added
and deleted —

* per-term live document frequencies (decremented on delete);
* live document count and live token total (so ``avgdl`` is exact);
* the full docID -> length table, *including* deleted documents, because
  sealed segments still hold postings for tombstoned docIDs and the
  engines index normalizers by docID;
* a monotonically increasing ``version``, bumped on every mutation, that
  lets sealed segments detect staleness (a segment sealed at version V
  has byte-exact metadata iff the corpus is still at version V).

:class:`LiveBM25Scorer` is the scorer snapshot derived from those
numbers: it duck-types :class:`~repro.index.bm25.BM25Scorer` (including
the ``_normalizers`` table the fast execution path reads directly) but
computes ``N`` and ``avgdl`` from the live corpus while keeping
normalizer slots for every docID ever allocated.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import InvertedIndexError
from repro.index.bm25 import BM25Parameters, BM25Scorer
from repro.index.builder import GlobalStatistics


class LiveBM25Scorer(BM25Scorer):
    """A BM25 scorer over the live corpus, indexed by global docID.

    ``doc_lengths`` covers every docID ever allocated (deleted documents
    keep their recorded length: segments still score them before the
    top-k queue refuses the tombstone), while ``num_live`` and
    ``total_live_tokens`` describe only the surviving documents — those
    drive IDF's ``N`` and the average document length, so scores are
    bit-identical to a from-scratch rebuild of the survivors.
    """

    def __init__(self, doc_lengths: Iterable[int], num_live: int,
                 total_live_tokens: int,
                 params: Optional[BM25Parameters] = None) -> None:
        doc_lengths = list(doc_lengths)
        if num_live <= 0:
            raise InvertedIndexError(
                "live corpus must contain at least one document"
            )
        self._params = BM25Parameters() if params is None else params
        self._doc_lengths = doc_lengths
        self._num_docs = num_live
        self._avgdl = total_live_tokens / num_live
        k1, b = self._params.k1, self._params.b
        self._normalizers = [
            k1 * (1.0 - b + b * length / self._avgdl)
            for length in doc_lengths
        ]


class LiveStatistics:
    """Mutable corpus-wide statistics shared by buffer and segments."""

    def __init__(self, params: Optional[BM25Parameters] = None) -> None:
        self.params = BM25Parameters() if params is None else params
        #: Length of every docID ever allocated (never shrinks).
        self._doc_lengths: List[int] = []
        self._live: List[bool] = []
        self._num_live = 0
        self._total_live_tokens = 0
        self._dfs: Dict[str, int] = {}
        #: Bumped on every add/delete; segments record it at seal time.
        self.version = 0
        #: Smallest document length ever admitted — a monotone lower
        #: bound on the live minimum, used for conservative score
        #: bounds on stale segments.
        self._min_length: Optional[int] = None
        self._scorer_cache: Optional[Tuple[int, LiveBM25Scorer]] = None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def allocate(self, length: int, terms: Iterable[str]) -> int:
        """Record one added document; returns its global docID."""
        if length <= 0:
            raise InvertedIndexError("document length must be positive")
        doc_id = len(self._doc_lengths)
        self._doc_lengths.append(length)
        self._live.append(True)
        self._num_live += 1
        self._total_live_tokens += length
        for term in terms:
            self._dfs[term] = self._dfs.get(term, 0) + 1
        if self._min_length is None or length < self._min_length:
            self._min_length = length
        self.version += 1
        return doc_id

    def remove(self, doc_id: int, terms: Iterable[str]) -> None:
        """Record one deleted document (its length stays on file)."""
        if not 0 <= doc_id < len(self._doc_lengths):
            raise InvertedIndexError(f"docID {doc_id} was never allocated")
        if not self._live[doc_id]:
            raise InvertedIndexError(f"docID {doc_id} already deleted")
        self._live[doc_id] = False
        self._num_live -= 1
        self._total_live_tokens -= self._doc_lengths[doc_id]
        for term in terms:
            df = self._dfs.get(term, 0) - 1
            if df < 0:
                raise InvertedIndexError(
                    f"df underflow for term {term!r} deleting doc {doc_id}"
                )
            if df == 0:
                del self._dfs[term]
            else:
                self._dfs[term] = df
        self.version += 1

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    @property
    def num_docs(self) -> int:
        """Live document count (BM25's ``N``)."""
        return self._num_live

    @property
    def id_space(self) -> int:
        """Number of docIDs ever allocated (never reused)."""
        return len(self._doc_lengths)

    @property
    def total_tokens(self) -> int:
        """Token total over live documents."""
        return self._total_live_tokens

    @property
    def avgdl(self) -> float:
        if self._num_live == 0:
            return 0.0
        return self._total_live_tokens / self._num_live

    def is_live(self, doc_id: int) -> bool:
        return 0 <= doc_id < len(self._live) and self._live[doc_id]

    def doc_length(self, doc_id: int) -> int:
        return self._doc_lengths[doc_id]

    def df(self, term: str) -> int:
        """Live document frequency of ``term`` (0 when absent)."""
        return self._dfs.get(term, 0)

    @property
    def terms(self) -> List[str]:
        """Live vocabulary, sorted lexically."""
        return sorted(self._dfs)

    def idf(self, term: str) -> float:
        """Live-corpus IDF (same formula as :meth:`BM25Scorer.idf`)."""
        n = self._dfs.get(term, 0)
        return math.log(
            (self._num_live - n + 0.5) / (n + 0.5) + 1.0
        )

    def min_normalizer(self) -> float:
        """Lower bound on any live document's length normalizer.

        Uses the smallest length ever admitted, which can only under-
        estimate the live minimum — an *under*-estimated normalizer
        yields an *over*-estimated score bound, the safe direction for
        early termination.
        """
        if self._min_length is None or self._num_live == 0:
            raise InvertedIndexError("no live documents")
        k1, b = self.params.k1, self.params.b
        return k1 * (1.0 - b + b * self._min_length / self.avgdl)

    def scorer(self) -> LiveBM25Scorer:
        """The scorer snapshot for the current version (cached)."""
        cached = self._scorer_cache
        if cached is not None and cached[0] == self.version:
            return cached[1]
        scorer = LiveBM25Scorer(self._doc_lengths, self._num_live,
                                self._total_live_tokens, self.params)
        self._scorer_cache = (self.version, scorer)
        return scorer

    def global_statistics(self) -> GlobalStatistics:
        """Builder-facing snapshot: live ``N`` plus live per-term dfs."""
        return GlobalStatistics(num_docs=self._num_live,
                                term_dfs=dict(self._dfs))
