"""The inverted index container used by BOSS, IIU and the Lucene model.

:class:`InvertedIndex` holds:

* per-document statistics (lengths, BM25 normalizers);
* one :class:`CompressedPostingList` per term — the block-compressed form
  with per-block metadata, the term's ``df``, its IDF, its whole-list
  maximum term-score (the WAND lookup-table input), and its byte address
  inside the SCM pool;
* the :class:`~repro.index.storage.AddressSpaceLayout` mapping lists to
  addresses so the memory model can classify access patterns.

The index is read-only once built (paper Section II-B: "Once created, the
inverted list is a (mostly) read-only data structure").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

from repro.compression.base import Codec, get_codec
from repro.errors import InvertedIndexError
from repro.index.blocks import BLOCK_METADATA_BYTES, Block
from repro.index.bm25 import BM25Scorer
from repro.index.postings import Posting
from repro.index.storage import AddressSpaceLayout, Region


@dataclass(frozen=True)
class DocumentStats:
    """Corpus-level document statistics."""

    num_docs: int
    avgdl: float
    total_tokens: int


class CompressedPostingList:
    """A term's block-compressed posting list plus its search metadata."""

    def __init__(self, term: str, scheme: str, blocks: Sequence[Block],
                 document_frequency: int, idf: float,
                 max_term_score: float, region: Region) -> None:
        if document_frequency != sum(b.metadata.count for b in blocks):
            raise InvertedIndexError(
                f"term {term!r}: df {document_frequency} does not match "
                f"block counts"
            )
        self.term = term
        #: Compression scheme name (the offloading API's ``compType``).
        self.scheme = scheme
        self.blocks = list(blocks)
        self.document_frequency = document_frequency
        self.idf = idf
        #: Whole-list score upper bound — the WAND module's lookup input.
        self.max_term_score = max_term_score
        #: Where the compressed payloads live in the SCM address space.
        self.region = region
        self._codec: Optional[Codec] = None

    @property
    def codec(self) -> Codec:
        """Codec instance for this list's scheme (lazily created)."""
        if self._codec is None:
            self._codec = get_codec(self.scheme)
        return self._codec

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def compressed_bytes(self) -> int:
        """Total payload bytes across blocks (excludes metadata)."""
        return sum(b.compressed_bytes for b in self.blocks)

    @property
    def metadata_bytes(self) -> int:
        """Size of the uncompressed per-block metadata array."""
        return BLOCK_METADATA_BYTES * len(self.blocks)

    def decode_block(self, index: int) -> List[Posting]:
        """Decompress block ``index``."""
        return self.blocks[index].decode(self.codec)

    def decode_block_arrays(self, index: int):
        """Fast-path decompress of block ``index``: ``(doc_ids, tfs)``.

        Returns two parallel ``array('I')`` buffers (see
        :meth:`repro.index.blocks.Block.decode_arrays`).
        """
        return self.blocks[index].decode_arrays(self.codec)

    def decode_all(self) -> List[Posting]:
        """Decompress the entire list (ground truth for tests)."""
        postings: List[Posting] = []
        for i in range(len(self.blocks)):
            postings.extend(self.decode_block(i))
        return postings

    def __len__(self) -> int:
        return self.document_frequency

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<CompressedPostingList term={self.term!r} scheme={self.scheme} "
            f"df={self.document_frequency} blocks={len(self.blocks)}>"
        )


class InvertedIndex:
    """Read-only, block-compressed inverted index over one shard.

    Construct via :class:`repro.index.builder.IndexBuilder`; direct
    construction is for tests and deserialization.
    """

    def __init__(self, lists: Dict[str, CompressedPostingList],
                 scorer: BM25Scorer, layout: AddressSpaceLayout,
                 stats: DocumentStats) -> None:
        self._lists = dict(lists)
        self._scorer = scorer
        self._layout = layout
        self._stats = stats

    @property
    def scorer(self) -> BM25Scorer:
        """The BM25 scorer bound to this corpus."""
        return self._scorer

    @property
    def layout(self) -> AddressSpaceLayout:
        return self._layout

    @property
    def stats(self) -> DocumentStats:
        return self._stats

    @property
    def num_terms(self) -> int:
        return len(self._lists)

    @property
    def terms(self) -> List[str]:
        """All indexed terms, sorted lexically (the paper's list order)."""
        return sorted(self._lists)

    @property
    def compressed_bytes(self) -> int:
        """Total compressed payload size across all lists."""
        return sum(pl.compressed_bytes for pl in self._lists.values())

    @property
    def uncompressed_bytes(self) -> int:
        """Raw size at 4 B per docID plus 4 B per tf."""
        return sum(8 * pl.document_frequency for pl in self._lists.values())

    def posting_list(self, term: str) -> CompressedPostingList:
        """Look up a term's compressed posting list."""
        try:
            return self._lists[term]
        except KeyError:
            raise InvertedIndexError(f"term {term!r} not in index") from None

    def __contains__(self, term: str) -> bool:
        return term in self._lists

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._lists))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<InvertedIndex terms={len(self._lists)} "
            f"docs={self._stats.num_docs} "
            f"compressed={self.compressed_bytes}B>"
        )
