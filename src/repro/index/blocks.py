"""Posting-list blocks and per-block metadata.

Each posting list is divided into blocks of up to :data:`BLOCK_SIZE`
(128) postings. A block stores two compressed payloads — docID d-gaps and
term frequencies — plus the paper's 19-byte metadata record used for
skipping and decompression (Section IV-A):

======================== ===== =======================================
field                    bytes purpose
======================== ===== =======================================
first docID              4     skip check (overlap test lower bound)
last docID               4     skip check (overlap test upper bound)
max term-score           4     early-termination score estimation
compressed block offset  4     where the payload lives in SCM
element count            7 bit decompressor stop condition
encoded bit width        5 bit fixed-width extractor configuration
first exception offset   12 bit PFD-style patch section locator
======================== ===== =======================================

The three sub-byte fields share the final 3 bytes, totalling 19 bytes.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.compression.base import Codec
from repro.compression.delta import (
    deltas_from_doc_ids,
    doc_ids_from_deltas,
    doc_ids_from_deltas_array,
)
from repro.errors import InvertedIndexError
from repro.index.postings import Posting

#: Postings per block, the paper's fixed block granularity.
BLOCK_SIZE = 128

#: Size of the per-block metadata record (Section IV-A).
BLOCK_METADATA_BYTES = 19


@dataclass(frozen=True)
class BlockMetadata:
    """The 19-byte per-block record kept uncompressed beside the list."""

    #: First (uncompressed) docID in the block.
    first_doc_id: int
    #: Last (uncompressed) docID in the block.
    last_doc_id: int
    #: Maximum BM25 term-score of any posting in the block.
    max_term_score: float
    #: Byte offset of the compressed payload within the list's region.
    offset: int
    #: Number of postings in the block (7-bit field, <= 128).
    count: int
    #: Encoded bit width hint for the fixed-width extractor (5-bit field).
    bit_width: int
    #: Offset of the first exception value/index (12-bit field; 0 when the
    #: scheme has no patch section).
    exception_offset: int

    def __post_init__(self) -> None:
        if not 0 < self.count <= BLOCK_SIZE:
            raise InvertedIndexError(
                f"block count {self.count} outside (0, {BLOCK_SIZE}]"
            )
        if self.first_doc_id > self.last_doc_id:
            raise InvertedIndexError(
                f"block range [{self.first_doc_id}, {self.last_doc_id}] inverted"
            )
        if self.bit_width >= 1 << 5:
            raise InvertedIndexError(f"bit width {self.bit_width} exceeds 5 bits")
        if self.exception_offset >= 1 << 12:
            raise InvertedIndexError(
                f"exception offset {self.exception_offset} exceeds 12 bits"
            )

    def overlaps(self, lo: int, hi: int) -> bool:
        """Whether the block's docID range intersects ``[lo, hi]``.

        This is the overlap check unit's test (Section IV-C, Block Fetch
        Module): it inspects only the first/last docID metadata fields.
        """
        return self.first_doc_id <= hi and lo <= self.last_doc_id


@dataclass(frozen=True)
class Block:
    """One compressed block: metadata plus the two payloads."""

    metadata: BlockMetadata
    #: Compressed docID d-gaps.
    doc_payload: bytes
    #: Compressed term frequencies (stored as ``tf - 1``).
    tf_payload: bytes

    @property
    def compressed_bytes(self) -> int:
        """Total payload size — what a block fetch reads from SCM."""
        return len(self.doc_payload) + len(self.tf_payload)

    def decode(self, codec: Codec) -> List[Posting]:
        """Decompress the block back into postings.

        The caller supplies the codec named by the list's compression
        scheme (the ``compType`` of the offloading API).
        """
        meta = self.metadata
        # The decoders assume bytes semantics: a zero-copy (mmap)
        # payload view is copied here, a bytes payload is not.
        deltas = codec.decode(bytes(self.doc_payload), meta.count)
        doc_ids = doc_ids_from_deltas(deltas, base=meta.first_doc_id - 1)
        tfs = codec.decode(bytes(self.tf_payload), meta.count)
        return [Posting(d, tf + 1) for d, tf in zip(doc_ids, tfs)]

    def decode_arrays(self, codec: Codec) -> Tuple[array, array]:
        """Production decompression: ``(docID array, tf array)``.

        Functionally identical to :meth:`decode` but stays in bulk form
        end to end — the codec's ``decode_block`` emits ``array('I')``
        d-gaps, the prefix-sum transform reconstructs docIDs in one
        pass, and no per-posting objects are materialized. This is the
        representation the query cursors consume (and the decoded-block
        cache retains). Payload views are copied exactly as in
        :meth:`decode`.
        """
        meta = self.metadata
        deltas = codec.decode_block(bytes(self.doc_payload), meta.count)
        doc_ids = doc_ids_from_deltas_array(deltas,
                                            base=meta.first_doc_id - 1)
        tfs = codec.decode_block(bytes(self.tf_payload), meta.count)
        return doc_ids, array("I", [tf + 1 for tf in tfs])


def build_block_columns(doc_ids: Sequence[int], tfs: Sequence[int],
                        codec: Codec, max_term_score: float,
                        offset: int) -> Block:
    """Compress one run of postings, given as columns, into a :class:`Block`.

    ``doc_ids`` (strictly increasing) and ``tfs`` are parallel; the
    index builder slices them straight out of its posting-list columns.
    ``offset`` is the byte position the payload will occupy within its
    posting list's region (recorded in metadata, exactly as the paper's
    "address offset of the compressed block" field).
    """
    if not doc_ids:
        raise InvertedIndexError("cannot build an empty block")
    if len(doc_ids) > BLOCK_SIZE:
        raise InvertedIndexError(
            f"block of {len(doc_ids)} postings exceeds {BLOCK_SIZE}"
        )
    deltas = deltas_from_doc_ids(doc_ids, base=doc_ids[0] - 1)
    metadata = BlockMetadata(
        first_doc_id=doc_ids[0],
        last_doc_id=doc_ids[-1],
        max_term_score=max_term_score,
        offset=offset,
        count=len(doc_ids),
        bit_width=min(31, max(deltas).bit_length()),
        exception_offset=0,
    )
    return Block(metadata=metadata,
                 doc_payload=codec.encode(deltas),
                 tf_payload=codec.encode([tf - 1 for tf in tfs]))


def build_block(postings: Sequence[Posting], codec: Codec,
                max_term_score: float, offset: int) -> Block:
    """:func:`build_block_columns` for a run given posting by posting."""
    return build_block_columns([p.doc_id for p in postings],
                               [p.tf for p in postings],
                               codec, max_term_score, offset)
