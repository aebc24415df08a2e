"""Posting and posting-list primitives.

A *posting* pairs a document identifier with the term's frequency in that
document; a *posting list* is the docID-sorted sequence of postings for
one term (paper Figure 1(a)). Posting lists here are the uncompressed,
in-memory form used during index construction and as the ground truth for
functional tests; the query-time representation is the block-compressed
:class:`repro.index.index.CompressedPostingList`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, NamedTuple, Sequence

from repro.errors import InvertedIndexError


class Posting(NamedTuple):
    """One ``(docID, term frequency)`` tuple."""

    doc_id: int
    tf: int


@dataclass
class PostingList:
    """DocID-sorted postings for a single term.

    Invariants (enforced on append):

    * docIDs strictly increase;
    * term frequencies are at least 1 (a posting exists only because the
      term occurs in the document).

    Stored as two parallel columns — what the block builder slices and
    the codecs consume; a :class:`Posting` exists only when a caller
    iterates or indexes.
    """

    term: str
    _doc_ids: List[int] = field(default_factory=list)
    _tfs: List[int] = field(default_factory=list)

    def append(self, doc_id: int, tf: int) -> None:
        """Add a posting; docIDs must arrive in increasing order."""
        if tf < 1:
            raise InvertedIndexError(
                f"term {self.term!r}: tf must be >= 1, got {tf}"
            )
        if self._doc_ids and doc_id <= self._doc_ids[-1]:
            raise InvertedIndexError(
                f"term {self.term!r}: docID {doc_id} out of order after "
                f"{self._doc_ids[-1]}"
            )
        if doc_id < 0:
            raise InvertedIndexError(f"negative docID {doc_id}")
        self._doc_ids.append(doc_id)
        self._tfs.append(tf)

    def extend(self, postings: Sequence[Posting]) -> None:
        """Append many postings, preserving the ordering invariant."""
        for posting in postings:
            self.append(posting.doc_id, posting.tf)

    @property
    def document_frequency(self) -> int:
        """Number of documents containing the term (``df``)."""
        return len(self._doc_ids)

    @property
    def doc_ids(self) -> List[int]:
        """The docID column, sorted ascending (the list itself: read,
        slice, do not mutate)."""
        return self._doc_ids

    @property
    def tfs(self) -> List[int]:
        """The term-frequency column aligned with :attr:`doc_ids`."""
        return self._tfs

    def __len__(self) -> int:
        return len(self._doc_ids)

    def __iter__(self) -> Iterator[Posting]:
        return map(Posting, self._doc_ids, self._tfs)

    def __getitem__(self, i: int) -> Posting:
        return Posting(self._doc_ids[i], self._tfs[i])

    def __bool__(self) -> bool:
        return bool(self._doc_ids)
