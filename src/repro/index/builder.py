"""Index construction: documents -> block-compressed inverted index.

The builder performs the paper's offline indexing pipeline:

1. accumulate ``(docID, tf)`` postings per term from tokenized documents;
2. compute BM25 document metadata (length normalizers) and per-term IDF;
3. choose the best compression scheme per posting list with the hybrid
   selector (paper Section V-A: "we find the best compression scheme
   among the five in advance and use the best for BOSS");
4. split each list into 128-posting blocks, compress d-gaps and term
   frequencies, and fill the 19-byte per-block metadata including the
   block's maximum term-score (rounded up to float32, the field's
   width; the whole-list maximum stays an exact double);
5. lay every list out in the SCM address space.

Steps 2-4 run over the whole build at once: :meth:`IndexBuilder.build`
concatenates every list's columns and derives the d-gap streams, their
bit widths, every posting's BM25 score and every block record in a few
array passes (:class:`_BuildColumns`). What stays per list is the
codecs' own work — selection from the width column, word packing, frame
choice — and the payload join.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, chain
from operator import sub
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.compression.hybrid import HybridSelector
from repro.errors import InvertedIndexError
from repro.index.blocks import BLOCK_SIZE, ceil_float32
from repro.index.bm25 import BM25Parameters, BM25Scorer
from repro.index.index import (
    BlockColumns,
    CompressedPostingList,
    DocumentStats,
    InvertedIndex,
)
from repro.index.postings import PostingList
from repro.index.storage import AddressSpaceLayout


@dataclass(frozen=True)
class GlobalStatistics:
    """Corpus-wide statistics distributed to shard builders.

    In a sharded deployment (paper Figure 1(b)), each leaf holds a docID
    interval; computing IDF from the shard-local df would make the same
    query score differently per shard. Real systems distribute global
    dfs from the root at indexing time — this object carries them.
    """

    num_docs: int
    term_dfs: Dict[str, int] = field(default_factory=dict)

    def idf(self, term: str, local_df: int) -> float:
        """Corpus-level IDF for ``term`` (falls back to the local df)."""
        df = self.term_dfs.get(term, local_df)
        return math.log(
            (self.num_docs - df + 0.5) / (df + 0.5) + 1.0
        )


class IndexBuilder:
    """Accumulates documents and produces an :class:`InvertedIndex`.

    Documents must be added in increasing docID order (the builder
    assigns sequential docIDs itself via :meth:`add_document`).

    Parameters
    ----------
    params:
        BM25 free parameters.
    schemes:
        Candidate compression schemes for the hybrid selector; ``None``
        uses the paper's five-scheme set. Passing a single-element
        sequence pins every list to one scheme (useful for ablations).
    scorer:
        Optional pre-built scorer overriding the one derived from the
        declared document lengths. The live-index layer uses this to
        seal segments whose postings carry *global* docIDs while their
        BM25 statistics (N, avgdl, normalizers) reflect the live corpus
        rather than the segment's own contents.
    """

    def __init__(self, params: Optional[BM25Parameters] = None,
                 schemes: Optional[Sequence[str]] = None,
                 global_stats: Optional["GlobalStatistics"] = None,
                 scorer: Optional[BM25Scorer] = None) -> None:
        self._params = BM25Parameters() if params is None else params
        self._selector = HybridSelector(schemes)
        self._doc_lengths: List[int] = []
        self._postings: Dict[str, PostingList] = {}
        self._finished = False
        self._scorer = scorer
        #: Corpus-wide statistics for sharded deployments: when a shard
        #: holds only a docID interval, its local dfs would skew the IDF;
        #: the root node distributes the global numbers instead (the
        #: standard practice in distributed search).
        self._global_stats = global_stats

    @property
    def num_docs(self) -> int:
        return len(self._doc_lengths)

    def add_document(self, tokens: Iterable[str]) -> int:
        """Index one document; returns its assigned docID."""
        if self._finished:
            raise InvertedIndexError("builder already finished")
        token_list = list(tokens)
        if not token_list:
            raise InvertedIndexError("cannot index an empty document")
        doc_id = len(self._doc_lengths)
        self._doc_lengths.append(len(token_list))
        for term, tf in sorted(Counter(token_list).items()):
            posting_list = self._postings.get(term)
            if posting_list is None:
                posting_list = self._postings[term] = PostingList(term)
            posting_list.append(doc_id, tf)
        return doc_id

    def add_postings(self, term: str, doc_ids: Sequence[int],
                     tfs: Sequence[int]) -> None:
        """Low-level path: install a pre-built posting list for ``term``.

        ``doc_ids`` (strictly increasing, non-negative) and ``tfs`` (each
        at least 1) are the list's two columns, as Python integers. Used
        by the synthetic corpus generators, which produce posting lists
        directly rather than token streams, and by the live and cluster
        layers' rebuilds; the caller must also declare document lengths
        via :meth:`declare_documents` (or hand the builder a scorer).
        """
        if self._finished:
            raise InvertedIndexError("builder already finished")
        if term in self._postings:
            raise InvertedIndexError(f"term {term!r} already has postings")
        if not len(doc_ids):
            raise InvertedIndexError(f"term {term!r}: empty posting list")
        self._postings[term] = PostingList.from_columns(term, doc_ids, tfs)

    def declare_documents(self, doc_lengths: Sequence[int]) -> None:
        """Declare corpus document lengths for the posting-level path."""
        if self._doc_lengths:
            raise InvertedIndexError("documents already declared")
        self._doc_lengths = list(doc_lengths)

    def build(self) -> InvertedIndex:
        """Finalize: compress every list and lay it out in SCM space."""
        if self._finished:
            raise InvertedIndexError("builder already finished")
        if not self._doc_lengths and self._scorer is None:
            raise InvertedIndexError("no documents indexed")
        self._finished = True

        if self._scorer is not None:
            scorer = self._scorer
        else:
            scorer = BM25Scorer(self._doc_lengths, self._params)

        # Lexical order: the paper's "inverted index is a sorted list of
        # posting lists in the lexical order of the indexed terms".
        terms = sorted(self._postings)
        postings = [self._postings[term] for term in terms]
        self._postings.clear()
        for term, posting_list in zip(terms, postings):
            max_doc = posting_list.doc_ids[-1]
            if max_doc >= scorer.id_space:
                raise InvertedIndexError(
                    f"term {term!r} references docID {max_doc} beyond corpus "
                    f"of {scorer.id_space} documents"
                )
        dfs = [len(posting_list) for posting_list in postings]
        if self._global_stats is not None:
            idfs = [self._global_stats.idf(term, df)
                    for term, df in zip(terms, dfs)]
        else:
            idfs = [scorer.idf(df) for df in dfs]
        doc_ids = np.fromiter(chain.from_iterable(
            posting_list.doc_ids for posting_list in postings),
            np.int64, sum(dfs))
        tfs = np.fromiter(chain.from_iterable(
            posting_list.tfs for posting_list in postings),
            np.int64, sum(dfs))
        # The passes work from the two columns alone: the lists' Python
        # integers, the build's largest transient, go first.
        del postings
        build = _BuildColumns(doc_ids, tfs, dfs, idfs, scorer)
        del doc_ids, tfs
        layout = AddressSpaceLayout()
        lists = {
            term: self._compress_list(term, at, idfs[at], build, layout)
            for at, term in enumerate(terms)
        }

        if self._doc_lengths:
            total_tokens = sum(self._doc_lengths)
        else:
            total_tokens = int(round(scorer.avgdl * scorer.num_docs))
        stats = DocumentStats(
            num_docs=scorer.id_space,
            avgdl=scorer.avgdl,
            total_tokens=total_tokens,
        )
        return InvertedIndex(lists, scorer, layout, stats)

    def _compress_list(self, term: str, at: int, idf: float,
                       build: "_BuildColumns",
                       layout: AddressSpaceLayout) -> CompressedPostingList:
        """Pick list ``at``'s scheme, encode its blocks and place it.

        Everything but the codec's own work is a slice of ``build``.
        """
        start, end = build.list_starts[at:at + 2]
        first, last = build.list_blocks[at:at + 2]
        gaps = build.gaps[start:end].tolist()
        # Hybrid selection is driven by the docID d-gap stream, the
        # dominant payload (paper Figure 3 measures d-gap streams).
        scheme = self._selector.select(
            gaps, build.gap_widths[start:end]).scheme
        codec = self._selector.codec(scheme)
        # Each block's stream restarts on its first docID: gap 0.
        gaps[::BLOCK_SIZE] = [0] * (last - first)
        gap_widths = build.block_gap_widths[start:end]
        tfs = build.stored_tfs[start:end].tolist()
        tf_widths = build.tf_widths[start:end]
        parts: List[bytes] = []
        for low in range(0, end - start, BLOCK_SIZE):
            high = low + BLOCK_SIZE
            parts += (codec.encode(gaps[low:high], gap_widths[low:high]),
                      codec.encode(tfs[low:high], tf_widths[low:high]))
        offsets = [0, *accumulate(map(len, parts))]
        columns = BlockColumns(
            build.firsts[first:last], build.lasts[first:last],
            build.block_max[first:last], offsets[0:-1:2],
            build.counts[first:last], build.bit_widths[first:last],
            [0] * (last - first), offsets[1::2])
        region = layout.allocate(term, offsets[-1])
        return CompressedPostingList(term, scheme, end - start, idf,
                                     build.list_max[at], region, columns,
                                     b"".join(parts))


def _bit_lengths(values: np.ndarray) -> bytes:
    """``bytes(map(int.bit_length, values))`` of a non-negative int64
    column, in one pass: a positive value's bit length is its binary
    exponent (exact, since the column is far below 2**53 — a wider
    value, which no codec takes, keeps a width past every limit)."""
    floats = values.astype(np.float64)
    _, exponents = np.frexp(floats, out=(floats, np.empty(len(floats),
                                                          np.int32)))
    return exponents.astype(np.uint8).tobytes()


class _BuildColumns:
    """What a build derives, in whole-build array passes, from every
    list's docID and tf columns concatenated in lexical order (``dfs``
    long each, list by list; the tf column is consumed).

    Positions are global: list ``i`` holds postings
    ``list_starts[i]:list_starts[i + 1]`` and blocks
    ``list_blocks[i]:list_blocks[i + 1]``. The value streams are
    ``int64`` columns beside their bit-length columns (what selection
    and the encoders read, :meth:`Codec._widths`); a list's slice
    becomes the Python integers the encoders take only while that list
    is encoded:

    * ``gaps`` — each list's selection d-gaps (base ``-1``), whose
      widths are ``gap_widths``; each block's stream is the same with a
      0 at its first posting (re-based on its first docID), whose widths
      are ``block_gap_widths``;
    * ``stored_tfs`` — ``tf - 1``, whose widths are ``tf_widths``.

    The record fields are per-block lists: first and last docID, count,
    bit width (``min(31, widest gap)``) and the maximum term score
    rounded up to float32; ``list_max`` is each list's exact maximum.
    Every posting's BM25 score is computed in
    :meth:`BM25Scorer.term_score`'s operation order over the scorer's
    normalizer vector, so every bound is bit-identical to the scalar
    formula's.
    """

    def __init__(self, doc_ids: np.ndarray, tfs: np.ndarray,
                 dfs: Sequence[int], idfs: Sequence[float],
                 scorer: BM25Scorer) -> None:
        self.list_starts = [0, *accumulate(dfs)]
        total = self.list_starts[-1]
        block_starts = [
            start for low, high in zip(self.list_starts, self.list_starts[1:])
            for start in range(low, high, BLOCK_SIZE)]
        self.list_blocks = [0, *accumulate(
            (df + BLOCK_SIZE - 1) // BLOCK_SIZE for df in dfs)]
        block_ends = block_starts[1:] + [total]

        # idf * (tf * (k1 + 1)) / (tf + normalizer), per posting; the
        # idf column's buffer then takes the denominators.
        scores = tfs * (scorer.params.k1 + 1.0)
        other = np.repeat(np.array(idfs, dtype=np.float64), dfs)
        scores *= other
        np.take(scorer.normalizer_array, doc_ids, out=other)
        other += tfs
        scores /= other
        del other
        # Each maximum starts from 0.0, as the scalar walk did.
        block_max = np.maximum.reduceat(scores, block_starts)
        del scores
        np.maximum(block_max, 0.0, out=block_max)
        self.list_max = np.maximum.reduceat(
            block_max, self.list_blocks[:-1]).tolist()
        self.block_max = ceil_float32(block_max).tolist()

        # d-gaps: docID - previous - 1, with previous = -1 at a list's
        # start.
        gaps = doc_ids.copy()
        gaps[1:] -= doc_ids[:-1]
        gaps -= 1
        list_firsts = self.list_starts[:-1]
        gaps[list_firsts] = doc_ids[list_firsts]
        self.gaps, self.gap_widths = gaps, _bit_lengths(gaps)
        block_gap_widths = np.frombuffer(self.gap_widths, np.uint8).copy()
        block_gap_widths[block_starts] = 0
        self.block_gap_widths = block_gap_widths.tobytes()
        tfs -= 1
        self.stored_tfs, self.tf_widths = tfs, _bit_lengths(tfs)

        self.firsts = doc_ids[block_starts].tolist()
        self.lasts = doc_ids[np.array(block_ends, dtype=np.intp) - 1].tolist()
        self.counts = list(map(sub, block_ends, block_starts))
        self.bit_widths = np.minimum(
            np.maximum.reduceat(block_gap_widths, block_starts), 31).tolist()
