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

The three sub-byte fields share the final 3 bytes, totalling 19 bytes;
the count field holds ``count - 1``. A posting list keeps these records
as columns (:class:`repro.index.index.CompressedPostingList`); the
:class:`Block` and :class:`BlockMetadata` objects here are built only on
demand, for the reference decoder, the deep validator and tooling.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.compression.base import Codec
from repro.compression.delta import (
    deltas_from_doc_ids,
    doc_ids_from_deltas,
    doc_ids_from_deltas_array,
)
from repro.errors import CompressionError, InvertedIndexError
from repro.index.postings import Posting

#: Postings per block, the paper's fixed block granularity.
BLOCK_SIZE = 128

#: Size of the per-block metadata record (Section IV-A).
BLOCK_METADATA_BYTES = 19

#: A stored ``tf - 1`` at or above this has a tf wider than 32 bits.
STORED_TF_LIMIT = 0xFFFFFFFF


def tf_overflow(codec: Codec) -> CompressionError:
    """What a decoder raises for a stored tf - 1 of
    :data:`STORED_TF_LIMIT` or more (only a corrupt or hostile payload
    holds one: the builder never writes a tf past 32 bits)."""
    return CompressionError(
        f"{codec.name}: stored tf - 1 of {STORED_TF_LIMIT} or more; "
        f"the tf does not fit 32 bits"
    )


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
        """Decompress the block back into postings (:func:`decode_payloads`).

        The caller supplies the codec named by the list's compression
        scheme (the ``compType`` of the offloading API).
        """
        meta = self.metadata
        return decode_payloads(codec, self.doc_payload, self.tf_payload,
                               meta.count, meta.first_doc_id)

    def decode_arrays(self, codec: Codec) -> Tuple[array, array]:
        """Production decompression: ``(docID array, tf array)``
        (:func:`decode_payload_arrays`)."""
        meta = self.metadata
        return decode_payload_arrays(codec, self.doc_payload,
                                     self.tf_payload, meta.count,
                                     meta.first_doc_id)


def decode_payloads(codec: Codec, doc_payload, tf_payload, count: int,
                    first_doc_id: int) -> List[Posting]:
    """The per-value reference decode of one block's two payloads.

    A docID or a tf past 32 bits raises :class:`CompressionError`, as
    on the bulk paths.
    """
    # The decoders assume bytes semantics: a zero-copy (mmap)
    # payload view is copied here, a bytes payload is not.
    deltas = codec.decode(bytes(doc_payload), count)
    doc_ids = doc_ids_from_deltas(deltas, base=first_doc_id - 1)
    tfs = codec.decode(bytes(tf_payload), count)
    if tfs and max(tfs) >= STORED_TF_LIMIT:
        raise tf_overflow(codec)
    return [Posting(d, tf + 1) for d, tf in zip(doc_ids, tfs)]


def decode_payload_arrays(codec: Codec, doc_payload, tf_payload,
                          count: int, first_doc_id: int
                          ) -> Tuple[array, array]:
    """Functionally :func:`decode_payloads`, in bulk form end to end.

    The codec's ``decode_block`` emits ``array('I')`` d-gaps, the
    prefix-sum transform reconstructs docIDs in one pass, and no
    per-posting objects are materialized. This is the representation
    the query cursors consume (and the decoded-block cache retains).
    """
    deltas = codec.decode_block(bytes(doc_payload), count)
    doc_ids = doc_ids_from_deltas_array(deltas, base=first_doc_id - 1)
    tfs = codec.decode_block(bytes(tf_payload), count)
    try:
        return doc_ids, array("I", [tf + 1 for tf in tfs])
    except OverflowError:
        raise tf_overflow(codec) from None


def ceil_float32(scores) -> np.ndarray:
    """``scores`` (a float or a float64 vector) rounded *up* to float32,
    elementwise: the record's 4-byte max term-score field, which must
    never understate its block. A value the nearest float32 rounds down
    takes the next float32 toward +inf."""
    scores = np.asarray(scores, dtype=np.float64)
    rounded = scores.astype(np.float32)
    return np.where(rounded < scores,
                    np.nextafter(rounded, np.float32(np.inf)), rounded)


def encode_block(doc_ids: Sequence[int], tfs: Sequence[int],
                 codec: Codec) -> Tuple[bytes, bytes, int]:
    """Compress one run of postings, given as columns: its docID
    payload, its tf payload and the record's bit-width field.

    ``doc_ids`` (strictly increasing) and ``tfs`` are parallel. The
    index builder produces the same three outputs for every block of a
    build from whole-build columns (:class:`~repro.index.builder.
    IndexBuilder`); this per-block form is :func:`build_block`'s.
    """
    if not doc_ids:
        raise InvertedIndexError("cannot build an empty block")
    if len(doc_ids) > BLOCK_SIZE:
        raise InvertedIndexError(
            f"block of {len(doc_ids)} postings exceeds {BLOCK_SIZE}"
        )
    deltas = deltas_from_doc_ids(doc_ids, base=doc_ids[0] - 1)
    return (codec.encode(deltas), codec.encode([tf - 1 for tf in tfs]),
            min(31, max(deltas).bit_length()))


def build_block(postings: Sequence[Posting], codec: Codec,
                max_term_score: float, offset: int) -> Block:
    """:func:`encode_block` for a run given posting by posting, as a
    :class:`Block`. ``offset`` is the byte position the payload will
    occupy within its posting list's region (the paper's "address
    offset of the compressed block" field)."""
    doc_ids = [p.doc_id for p in postings]
    doc_payload, tf_payload, bit_width = encode_block(
        doc_ids, [p.tf for p in postings], codec)
    metadata = BlockMetadata(
        first_doc_id=doc_ids[0],
        last_doc_id=doc_ids[-1],
        max_term_score=max_term_score,
        offset=offset,
        count=len(doc_ids),
        bit_width=bit_width,
        exception_offset=0,
    )
    return Block(metadata=metadata, doc_payload=doc_payload,
                 tf_payload=tf_payload)
