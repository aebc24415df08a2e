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
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.compression.delta import deltas_from_doc_ids
from repro.compression.hybrid import HybridSelector
from repro.errors import InvertedIndexError
from repro.index.blocks import BLOCK_SIZE, ceil_float32, encode_block
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

    def add_postings(self, term: str, postings: Sequence) -> None:
        """Low-level path: install a pre-built posting list for ``term``.

        ``postings`` is a sequence of ``(docID, tf)`` pairs with strictly
        increasing docIDs. Used by the synthetic corpus generators, which
        produce posting lists directly rather than token streams; the
        caller must also declare document lengths via
        :meth:`declare_documents`.
        """
        if self._finished:
            raise InvertedIndexError("builder already finished")
        if term in self._postings:
            raise InvertedIndexError(f"term {term!r} already has postings")
        posting_list = PostingList(term)
        for doc_id, tf in postings:
            posting_list.append(doc_id, tf)
        self._postings[term] = posting_list

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
        layout = AddressSpaceLayout()
        lists: Dict[str, CompressedPostingList] = {}

        # Lexical order: the paper's "inverted index is a sorted list of
        # posting lists in the lexical order of the indexed terms".
        for term in sorted(self._postings):
            posting_list = self._postings[term]
            max_doc = posting_list.doc_ids[-1]
            if max_doc >= scorer.id_space:
                raise InvertedIndexError(
                    f"term {term!r} references docID {max_doc} beyond corpus "
                    f"of {scorer.id_space} documents"
                )
            lists[term] = self._compress_list(term, posting_list, scorer,
                                              layout)

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

    def _compress_list(self, term: str, posting_list: PostingList,
                       scorer: BM25Scorer,
                       layout: AddressSpaceLayout) -> CompressedPostingList:
        """Pick a scheme, block-compress, and place one posting list."""
        df = posting_list.document_frequency
        if self._global_stats is not None:
            idf = self._global_stats.idf(term, df)
        else:
            idf = scorer.idf(df)

        # Hybrid selection is driven by the docID d-gap stream, the
        # dominant payload (paper Figure 3 measures d-gap streams).
        doc_ids, tfs = posting_list.doc_ids, posting_list.tfs
        scheme = self._selector.select(deltas_from_doc_ids(doc_ids)).scheme
        codec = self._selector.codec(scheme)
        # The record's 4-byte field holds each block max rounded up to
        # float32; the list max stays the exact double.
        columns = BlockColumns([], [], [], [], [], [], [], [])
        parts: List[bytes] = []
        offset = 0
        list_max = 0.0
        for start in range(0, df, BLOCK_SIZE):
            ids = doc_ids[start:start + BLOCK_SIZE]
            block_tfs = tfs[start:start + BLOCK_SIZE]
            block_max = scorer.max_term_score(df, zip(ids, block_tfs),
                                              idf=idf)
            list_max = max(list_max, block_max)
            doc_payload, tf_payload, bit_width = encode_block(ids, block_tfs,
                                                              codec)
            for column, value in zip(columns, (
                    ids[0], ids[-1], ceil_float32(block_max), offset,
                    len(ids), bit_width, 0, offset + len(doc_payload))):
                column.append(value)
            parts += (doc_payload, tf_payload)
            offset += len(doc_payload) + len(tf_payload)

        region = layout.allocate(term, offset)
        return CompressedPostingList(term, scheme, df, idf, list_max, region,
                                     columns, b"".join(parts))
