"""The mutable in-memory write buffer of the live index.

New documents land here first, uncompressed, exactly like an LSM tree's
memtable: the buffer absorbs writes at DRAM speed and only touches the
SCM pool when it *seals* — at which point its contents replay through
the normal :class:`~repro.index.builder.IndexBuilder` + codec stack and
become an immutable segment (one sequential SCM write).

The buffer is bounded by document count;
:class:`~repro.live.writer.LiveIndexWriter` seals it when the bound
trips. Deleting a buffered document simply removes it —
no tombstone is needed for a document that never reached a segment.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Tuple

from repro.errors import InvertedIndexError

#: Modeled bytes per uncompressed posting (4 B docID + 4 B tf).
POSTING_BYTES = 8


class MemSegment:
    """Uncompressed in-memory postings for recently added documents."""

    def __init__(self, max_docs: int = 256) -> None:
        if max_docs <= 0:
            raise InvertedIndexError("buffer must hold at least one document")
        self.max_docs = max_docs
        #: docID -> term frequencies of the buffered document.
        self._docs: Dict[int, Counter] = {}
        self._lengths: Dict[int, int] = {}
        self._num_postings = 0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add(self, doc_id: int, tfs: Counter, length: int) -> None:
        """Buffer one document under its (global) docID."""
        if doc_id in self._docs:
            raise InvertedIndexError(f"docID {doc_id} already buffered")
        if not tfs:
            raise InvertedIndexError("cannot buffer an empty document")
        self._docs[doc_id] = tfs
        self._lengths[doc_id] = length
        self._num_postings += len(tfs)

    def remove(self, doc_id: int) -> Tuple[int, Counter]:
        """Drop a buffered document; returns ``(length, tfs)``."""
        try:
            tfs = self._docs.pop(doc_id)
        except KeyError:
            raise InvertedIndexError(
                f"docID {doc_id} not in the write buffer"
            ) from None
        length = self._lengths.pop(doc_id)
        self._num_postings -= len(tfs)
        return length, tfs

    def drain(self) -> Dict[int, Counter]:
        """Empty the buffer; returns the drained docID -> tfs map."""
        docs = self._docs
        self._docs = {}
        self._lengths = {}
        self._num_postings = 0
        return docs

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def __contains__(self, doc_id: int) -> bool:
        return doc_id in self._docs

    def __len__(self) -> int:
        return len(self._docs)

    @property
    def num_docs(self) -> int:
        return len(self._docs)

    @property
    def approx_bytes(self) -> int:
        """Modeled DRAM footprint: postings plus per-doc length slots."""
        return POSTING_BYTES * self._num_postings + 4 * len(self._docs)

    @property
    def full(self) -> bool:
        return len(self._docs) >= self.max_docs

    def doc_ids(self) -> List[int]:
        """Buffered docIDs, ascending."""
        return sorted(self._docs)

    def length_of(self, doc_id: int) -> int:
        return self._lengths[doc_id]

    def terms_of(self, doc_id: int) -> Tuple[str, ...]:
        return tuple(sorted(self._docs[doc_id]))

    def tf(self, doc_id: int, term: str) -> int:
        """Term frequency of ``term`` in a buffered doc (0 if absent)."""
        tfs = self._docs.get(doc_id)
        if tfs is None:
            return 0
        return tfs.get(term, 0)

    def postings_by_term(self) -> Dict[str, Tuple[List[int], List[int]]]:
        """``term -> (docIDs, tfs)``, two columns with ascending docIDs."""
        out: Dict[str, Tuple[List[int], List[int]]] = {}
        for doc_id in sorted(self._docs):
            for term, tf in self._docs[doc_id].items():
                columns = out.get(term)
                if columns is None:
                    columns = out[term] = ([], [])
                columns[0].append(doc_id)
                columns[1].append(tf)
        return out

    def items(self) -> Iterable[Tuple[int, Counter]]:
        """Buffered ``(docID, tfs)`` pairs in ascending docID order."""
        for doc_id in sorted(self._docs):
            yield doc_id, self._docs[doc_id]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<MemSegment docs={len(self._docs)}/{self.max_docs} "
            f"bytes={self.approx_bytes}>"
        )
