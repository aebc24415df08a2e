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

from array import array
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.compression.base import Codec, get_codec
from repro.errors import CompressionError, InvertedIndexError
from repro.index.blocks import (
    BLOCK_METADATA_BYTES,
    Block,
    BlockMetadata,
    decode_payload_arrays,
    decode_payloads,
    tf_overflow,
)
from repro.index.bm25 import BM25Scorer
from repro.index.postings import Posting
from repro.index.storage import AddressSpaceLayout, Region


@dataclass(frozen=True)
class DocumentStats:
    """Corpus-level document statistics."""

    num_docs: int
    avgdl: float
    total_tokens: int


class BlockColumns(NamedTuple):
    """A list's block records as parallel Python lists (hot loops index
    them cheaply): the 19-byte record's seven fields, ``starts`` being
    its payload offset, then where each block's tf payload begins."""

    firsts: List[int]
    lasts: List[int]
    block_max: List[float]
    starts: List[int]
    counts: List[int]
    widths: List[int]
    exceptions: List[int]
    splits: List[int]


class CompressedPostingList:
    """A term's block-compressed posting list plus its search metadata.

    The block records are columns (:class:`BlockColumns`, each also an
    attribute) over one ``payload`` buffer holding every block's docID
    then tf payload: block ``i`` spans ``payload[starts[i]:ends[i]]``,
    split at ``splits[i]``. :attr:`blocks` builds per-block objects on
    demand.
    """

    def __init__(self, term: str, scheme: str, document_frequency: int,
                 idf: float, max_term_score: float, region: Region,
                 columns: BlockColumns, payload) -> None:
        self.term = term
        #: Compression scheme name (the offloading API's ``compType``).
        self.scheme = scheme
        self.document_frequency = document_frequency
        self.idf = idf
        #: Whole-list score upper bound — the WAND module's lookup input.
        self.max_term_score = max_term_score
        #: Where the compressed payloads live in the SCM address space.
        self.region = region
        self.columns = columns
        (self.firsts, self.lasts, self.block_max, self.starts, self.counts,
         _widths, _exceptions, self.splits) = columns
        self.ends = columns.starts[1:] + [len(payload)]
        #: Every block's payloads, back to back (bytes, or a zero-copy
        #: view of a mapped file).
        self.payload = payload
        self._codec: Optional[Codec] = None
        self._blocks: Optional[Tuple[Block, ...]] = None

    @property
    def blocks(self) -> Tuple[Block, ...]:
        """Per-block objects, built on first use for tests, tooling and
        fault injection; no open or query path asks."""
        if self._blocks is None:
            payload = self.payload
            self._blocks = tuple(
                Block(BlockMetadata(first, last, block_max, start, count,
                                    width, exception),
                      payload[start:split], payload[split:end])
                for first, last, block_max, start, count, width, exception,
                split, end in zip(*self.columns, self.ends))
        return self._blocks

    @property
    def codec(self) -> Codec:
        """Codec instance for this list's scheme (lazily created)."""
        if self._codec is None:
            self._codec = get_codec(self.scheme)
        return self._codec

    @property
    def num_blocks(self) -> int:
        return len(self.firsts)

    @property
    def compressed_bytes(self) -> int:
        """Total payload bytes across blocks (excludes metadata)."""
        return len(self.payload)

    @property
    def metadata_bytes(self) -> int:
        """Size of the uncompressed per-block metadata array."""
        return BLOCK_METADATA_BYTES * len(self.firsts)

    def _block(self, index: int) -> tuple:
        """Block ``index`` as decoder arguments: its two payloads, its
        count and its first docID."""
        split = self.splits[index]
        return (self.payload[self.starts[index]:split],
                self.payload[split:self.ends[index]], self.counts[index],
                self.firsts[index])

    def decode_block(self, index: int) -> List[Posting]:
        """Decompress block ``index`` with the per-value reference
        decoder (:func:`~repro.index.blocks.decode_payloads`)."""
        return decode_payloads(self.codec, *self._block(index))

    def decode_block_arrays(self, index: int) -> Tuple[array, array]:
        """Fast-path decompress of block ``index``: ``(doc_ids, tfs)``,
        two parallel ``array('I')`` buffers
        (:func:`~repro.index.blocks.decode_payload_arrays`)."""
        return decode_payload_arrays(self.codec, *self._block(index))

    def decode_arrays(self) -> List[Tuple[array, array]]:
        """Every block decompressed in one pass: ``decode_arrays()[i]``
        equals :meth:`decode_block_arrays` ``(i)`` value for value.

        One :meth:`~repro.compression.base.Codec.decode_blocks` call
        takes the docID gaps and the tfs of every block; the docIDs are
        one running sum of ``gap + 1`` over the list, re-based at each
        block on its first docID. Bounds are checked in 64
        bits before narrowing, so a docID or a tf past 32 bits raises
        :class:`CompressionError` instead of wrapping. Raises whatever
        a block's own decode would raise, though not necessarily with
        that block's message: a caller that must name the failing block
        decodes block by block. A list too short to repay numpy's
        set-up (:meth:`~repro.compression.base.Codec.decodes_in_one_pass`)
        is decoded block by block.
        """
        total = self.document_frequency
        if not self.codec.decodes_in_one_pass(2 * total):
            return [self.decode_block_arrays(i)
                    for i in range(len(self.firsts))]
        counts = self.counts
        payload = self.payload
        # gap + 1 and tf + 1, in 64 bits so that nothing wraps.
        values = self.codec.decode_blocks(
            [payload[start:split]
             for start, split in zip(self.starts, self.splits)]
            + [payload[split:end]
               for split, end in zip(self.splits, self.ends)],
            counts + counts,
        ).astype(np.int64)
        values += 1
        # The running sum of gap + 1, less its value at the end of the
        # previous block, is the distance from the block's first docID
        # - 1: the docIDs overwrite the gaps in place.
        doc_ids = values[:total]
        np.add.accumulate(doc_ids, out=doc_ids)
        ends = list(accumulate(counts))
        bases = np.array(self.firsts, dtype=np.int64) - 1
        bases[1:] -= doc_ids.take([end - 1 for end in ends[:-1]])
        doc_ids += bases.repeat(counts)
        if values.max() > 0xFFFFFFFF:
            if values[total:].max() > 0xFFFFFFFF:
                raise tf_overflow(self.codec)
            raise CompressionError(
                f"{self.term!r}: docID beyond 32 bits accumulating d-gaps"
            )
        both = array("I", values.astype(np.uint32).tobytes())
        return [(both[start:end], both[total + start:total + end])
                for start, end in zip([0] + ends, ends)]

    def decode_columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """The whole list as two ``uint32`` columns, ``(doc_ids, tfs)``:
        :meth:`decode_arrays`' blocks end to end."""
        blocks = self.decode_arrays()
        return (np.frombuffer(b"".join(ids for ids, _tfs in blocks),
                              np.uint32),
                np.frombuffer(b"".join(tfs for _ids, tfs in blocks),
                              np.uint32))

    def decode_all(self) -> List[Posting]:
        """Decompress the entire list (ground truth for tests)."""
        postings: List[Posting] = []
        for i in range(len(self.firsts)):
            postings.extend(self.decode_block(i))
        return postings

    def __len__(self) -> int:
        return self.document_frequency

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<CompressedPostingList term={self.term!r} scheme={self.scheme} "
            f"df={self.document_frequency} blocks={len(self.firsts)}>"
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
