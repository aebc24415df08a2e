"""Structured binary index format.

The paper's ``init()`` call "loads the inverted index file (indexFile)
from disk to SCM memory pool". This module defines that file:
``.bossx``, a self-describing binary format that is parsed without
executing anything, so it is safe to open from an untrusted source:

======================== ===========================================
section                  contents
======================== ===========================================
header                   magic ``BOSSIDX1``, document count, avgdl,
                         total tokens, BM25 k1/b, term count
document table           varint-coded document lengths
term sections            per term: name, scheme, df, idf, max score,
                         region base/size, block records
block record             the 19-byte metadata fields + the two
                         compressed payloads, length-prefixed
======================== ===========================================

All integers are unsigned little-endian (fixed width) or LEB128-style
varints; floats are IEEE-754 doubles. Loading rebuilds a fully
functional :class:`InvertedIndex` whose query results are identical to
the original — asserted by tests.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import BinaryIO, Dict, List, Union

from repro.errors import InvertedIndexError
from repro.index.blocks import Block, BlockMetadata
from repro.index.bm25 import BM25Parameters, BM25Scorer
from repro.index.index import (
    CompressedPostingList,
    DocumentStats,
    InvertedIndex,
)
from repro.index.storage import AddressSpaceLayout, Region

MAGIC = b"BOSSIDX1"


def _write_varint(out: BinaryIO, value: int) -> None:
    if value < 0:
        raise InvertedIndexError("varint cannot encode negatives")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.write(bytes([byte | 0x80]))
        else:
            out.write(bytes([byte]))
            return


def _read_varint(data: bytes, offset: int) -> tuple:
    value = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise InvertedIndexError("truncated varint")
        byte = data[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, offset
        shift += 7


def _write_bytes(out: BinaryIO, payload: bytes) -> None:
    _write_varint(out, len(payload))
    out.write(payload)


def _read_bytes(data: bytes, offset: int) -> tuple:
    length, offset = _read_varint(data, offset)
    if offset + length > len(data):
        raise InvertedIndexError("truncated byte field")
    return data[offset:offset + length], offset + length


# Public aliases: the WAL and segment-file formats (repro.live) reuse
# the exact same primitive encodings, so torn-record detection and the
# fuzz tests exercise one codec, not three.
write_varint = _write_varint
read_varint = _read_varint
write_bytes_field = _write_bytes
read_bytes_field = _read_bytes


def write_term_section(out: BinaryIO, posting_list) -> None:
    """Write one term's posting-list section (shared ``.bossx`` /
    segment-file encoding): name, scheme, df, scores, region, blocks."""
    term = posting_list.term
    _write_bytes(out, term.encode("utf-8"))
    _write_bytes(out, posting_list.scheme.encode("ascii"))
    _write_varint(out, posting_list.document_frequency)
    out.write(struct.pack("<dd", posting_list.idf,
                          posting_list.max_term_score))
    _write_varint(out, posting_list.region.base)
    _write_varint(out, posting_list.region.size)
    _write_varint(out, posting_list.num_blocks)
    for block in posting_list.blocks:
        meta = block.metadata
        _write_varint(out, meta.first_doc_id)
        _write_varint(out, meta.last_doc_id)
        out.write(struct.pack("<d", meta.max_term_score))
        _write_varint(out, meta.offset)
        _write_varint(out, meta.count)
        _write_varint(out, meta.bit_width)
        _write_varint(out, meta.exception_offset)
        _write_bytes(out, block.doc_payload)
        _write_bytes(out, block.tf_payload)


def read_term_section(data: bytes, offset: int,
                      layout: AddressSpaceLayout) -> tuple:
    """Read one term section; returns ``(posting_list, offset)``.

    Replays the recorded region size through ``layout`` so the
    allocator's internal bookkeeping stays consistent with the recorded
    addresses.

    ``data`` is any byte buffer: block payloads are sliced from it
    without conversion, so a ``memoryview`` input (the mmap storage
    path) yields zero-copy payload views while ``bytes`` input yields
    ordinary ``bytes`` payloads.
    """
    double = struct.Struct("<d")
    pair = struct.Struct("<dd")
    term_bytes, offset = _read_bytes(data, offset)
    term = bytes(term_bytes).decode("utf-8")
    scheme_bytes, offset = _read_bytes(data, offset)
    scheme = bytes(scheme_bytes).decode("ascii")
    df, offset = _read_varint(data, offset)
    if offset + pair.size > len(data):
        raise InvertedIndexError("truncated term record")
    idf, max_score = pair.unpack_from(data, offset)
    offset += pair.size
    region_base, offset = _read_varint(data, offset)
    region_size, offset = _read_varint(data, offset)
    num_blocks, offset = _read_varint(data, offset)
    blocks: List[Block] = []
    for _b in range(num_blocks):
        first, offset = _read_varint(data, offset)
        last, offset = _read_varint(data, offset)
        if offset + double.size > len(data):
            raise InvertedIndexError("truncated block record")
        (block_max,) = double.unpack_from(data, offset)
        offset += double.size
        block_offset, offset = _read_varint(data, offset)
        count, offset = _read_varint(data, offset)
        bit_width, offset = _read_varint(data, offset)
        exception_offset, offset = _read_varint(data, offset)
        doc_payload, offset = _read_bytes(data, offset)
        tf_payload, offset = _read_bytes(data, offset)
        blocks.append(Block(
            metadata=BlockMetadata(
                first_doc_id=first,
                last_doc_id=last,
                max_term_score=block_max,
                offset=block_offset,
                count=count,
                bit_width=bit_width,
                exception_offset=exception_offset,
            ),
            doc_payload=doc_payload,
            tf_payload=tf_payload,
        ))
    region = Region(base=region_base, size=region_size)
    layout.allocate(term, region_size)
    posting_list = CompressedPostingList(
        term=term,
        scheme=scheme,
        blocks=blocks,
        document_frequency=df,
        idf=idf,
        max_term_score=max_score,
        region=region,
    )
    return posting_list, offset


def save_index_binary(index: InvertedIndex,
                      path: Union[str, Path]) -> None:
    """Write ``index`` in the ``.bossx`` binary format."""
    scorer = index.scorer
    with open(path, "wb") as out:
        out.write(MAGIC)
        stats = index.stats
        out.write(struct.pack("<IdQdd", stats.num_docs, stats.avgdl,
                              stats.total_tokens, scorer.params.k1,
                              scorer.params.b))
        _write_varint(out, index.num_terms)
        for length in scorer._doc_lengths:
            _write_varint(out, length)
        for term in index.terms:
            write_term_section(out, index.posting_list(term))


def load_index_binary(path: Union[str, Path]) -> InvertedIndex:
    """Read a ``.bossx`` file back into an :class:`InvertedIndex`."""
    return parse_index_buffer(Path(path).read_bytes(), source=str(path))


def parse_index_buffer(data, source: str = "<buffer>") -> InvertedIndex:
    """Parse a complete ``.bossx`` image from any byte buffer.

    ``bytes`` input (the :func:`load_index_binary` path) produces
    ordinary ``bytes`` block payloads. A ``memoryview`` input — the
    :class:`repro.index.mmapio.MmapIndexStorage` path — produces
    payloads that are zero-copy views into the buffer, copied only
    when a block is decoded.
    """
    if data[:len(MAGIC)] != MAGIC:
        raise InvertedIndexError(f"{source} is not a BOSSIDX1 file")
    offset = len(MAGIC)
    header_struct = struct.Struct("<IdQdd")
    if offset + header_struct.size > len(data):
        raise InvertedIndexError("truncated header")
    num_docs, avgdl, total_tokens, k1, b = header_struct.unpack_from(
        data, offset
    )
    offset += header_struct.size
    num_terms, offset = _read_varint(data, offset)

    doc_lengths: List[int] = []
    for _ in range(num_docs):
        length, offset = _read_varint(data, offset)
        doc_lengths.append(length)
    scorer = BM25Scorer(doc_lengths, BM25Parameters(k1=k1, b=b))

    layout = AddressSpaceLayout()
    lists: Dict[str, CompressedPostingList] = {}
    for _ in range(num_terms):
        posting_list, offset = read_term_section(data, offset, layout)
        lists[posting_list.term] = posting_list
    if offset != len(data):
        raise InvertedIndexError(
            f"{len(data) - offset} trailing bytes after last term"
        )
    stats = DocumentStats(num_docs=num_docs, avgdl=avgdl,
                          total_tokens=total_tokens)
    return InvertedIndex(lists, scorer, layout, stats)
