"""Structured binary index format, version 2.

The paper's ``init()`` call "loads the inverted index file (indexFile)
from disk to SCM memory pool", and the block fetch module then reads
each block's 19-byte metadata record in place. This module defines that
file: ``.bossx``, a self-describing binary format that is parsed without
executing anything, so it is safe to open from an untrusted source.
Every section is fixed-width, so opening one is ``np.frombuffer`` views
plus O(terms) Python:

======================== ===========================================
section                  contents
======================== ===========================================
header (64 B)            magic ``BOSSIDX2``; document, term and block
                         counts; name and payload byte counts; total
                         tokens, avgdl, BM25 k1/b
document table           u32 per document: its length
term directory           44 B per term: end of its name, scheme,
                         df, end of its blocks, idf, exact list max
                         score, payload bytes
term names               UTF-8, back to back in directory order
block records            the paper's 19-byte record per block: first
                         and last docID, max term-score (float32,
                         rounded up), payload offset, then
                         ``count - 1``, bit width and exception offset
                         in 7 + 5 + 12 bits
doc/tf splits            u16 per block: bytes of its docID payload
payloads                 per list, per block: docID then tf payload
======================== ===========================================

Integers are unsigned little-endian, floats IEEE-754. Lists are placed
in the SCM address space in directory order when the file is read, so
a list's region is not stored. A version 1 file (varint-coded) is
refused with an error naming its version.
:func:`read_image` checks every structural invariant the query path
trusts, vectorised; a live segment file (:mod:`repro.live.segfile`) is
an image followed by its live section, read by the same function.
"""

from __future__ import annotations

import struct
from itertools import accumulate, chain
from pathlib import Path
from typing import BinaryIO, Dict, NamedTuple, Tuple, Union

import numpy as np

from repro.compression.base import list_codecs
from repro.errors import InvertedIndexError
from repro.index.blocks import ceil_float32
from repro.index.bm25 import BM25Parameters, BM25Scorer
from repro.index.index import (
    BlockColumns,
    CompressedPostingList,
    DocumentStats,
    InvertedIndex,
)
from repro.index.storage import AddressSpaceLayout

MAGIC = b"BOSSIDX2"

#: The file format this module writes and reads.
FORMAT_VERSION = 2

_HEADER = struct.Struct("<8sIIIIQQddd")

_DIRECTORY = np.dtype([
    ("name_end", "<u4"), ("scheme", "S8"), ("df", "<u4"),
    ("block_end", "<u4"), ("idf", "<f8"), ("max_score", "<f8"),
    ("size", "<u8"),
])

#: The paper's 19-byte block record (``packed``: count - 1, bit width
#: and exception offset in 7 + 5 + 12 bits).
RECORD = np.dtype([
    ("first", "<u4"), ("last", "<u4"), ("max", "<f4"), ("offset", "<u4"),
    ("packed", "u1", (3,)),
])


class ImageHeader(NamedTuple):
    """What an image's header and document table hold."""

    lengths: np.ndarray
    total_tokens: int
    avgdl: float
    params: BM25Parameters

    def index(self, lists: Dict[str, CompressedPostingList],
              layout: AddressSpaceLayout, scorer) -> InvertedIndex:
        """The image's index, scored by ``scorer``."""
        return InvertedIndex(lists, scorer, layout, DocumentStats(
            num_docs=len(self.lengths), avgdl=self.avgdl,
            total_tokens=self.total_tokens))


# The WAL and vector-index formats share these varint and
# length-prefixed primitives, so torn-record detection and the fuzz
# tests exercise one codec.
def write_varint(out: BinaryIO, value: int) -> None:
    if value < 0:
        raise InvertedIndexError("varint cannot encode negatives")
    while True:
        byte = value & 0x7F
        value >>= 7
        if not value:
            out.write(bytes([byte]))
            return
        out.write(bytes([byte | 0x80]))


def read_varint(data: bytes, offset: int) -> tuple:
    value = shift = 0
    while True:
        if offset >= len(data):
            raise InvertedIndexError("truncated varint")
        byte = data[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, offset
        shift += 7


def write_bytes_field(out: BinaryIO, payload: bytes) -> None:
    write_varint(out, len(payload))
    out.write(payload)


def read_bytes_field(data: bytes, offset: int) -> tuple:
    length, offset = read_varint(data, offset)
    if offset + length > len(data):
        raise InvertedIndexError("truncated byte field")
    return data[offset:offset + length], offset + length


def write_image(out: BinaryIO, index: InvertedIndex) -> None:
    """Write ``index`` as one version-2 image (see the module table)."""
    lists = [index.posting_list(term) for term in index.terms]
    names = [plist.term.encode("utf-8") for plist in lists]
    directory = np.array([
        (name_end, plist.scheme.encode("ascii"), plist.document_frequency,
         block_end, plist.idf, plist.max_term_score, plist.compressed_bytes)
        for plist, name_end, block_end in zip(
            lists, accumulate(map(len, names)),
            accumulate(plist.num_blocks for plist in lists))
    ], dtype=_DIRECTORY)

    fields = zip(*[plist.columns for plist in lists])
    firsts, lasts, block_max, starts, counts, widths, exceptions, splits = [
        list(chain.from_iterable(field)) for field in fields] or [[]] * 8
    records = np.zeros(len(firsts), RECORD)
    records["first"], records["last"] = firsts, lasts
    records["max"] = ceil_float32(block_max)
    records["offset"] = starts
    packed = ((np.array(counts, dtype=np.int64) - 1)
              | np.array(widths, dtype=np.int64) << 7
              | np.array(exceptions, dtype=np.int64) << 12)
    records["packed"] = np.stack([packed & 0xFF, packed >> 8 & 0xFF,
                                  packed >> 16], axis=1)

    scorer = index.scorer
    stats = index.stats
    lengths = np.asarray(scorer._doc_lengths, dtype="<u4")
    name_blob = b"".join(names)
    payload_bytes = sum(plist.compressed_bytes for plist in lists)
    out.write(_HEADER.pack(MAGIC, len(lengths), len(lists), len(records),
                           len(name_blob), payload_bytes, stats.total_tokens,
                           stats.avgdl, scorer.params.k1, scorer.params.b))
    for section in (lengths, directory, name_blob, records,
                    np.subtract(splits, starts).astype("<u2")):
        out.write(section if isinstance(section, bytes)
                  else section.tobytes())
    for plist in lists:
        out.write(plist.payload)


def save_index_binary(index: InvertedIndex,
                      path: Union[str, Path]) -> None:
    """Write ``index`` in the ``.bossx`` binary format."""
    with open(path, "wb") as out:
        write_image(out, index)


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
    header, lists, layout, end = read_image(data, source)
    if end != len(data):
        raise InvertedIndexError(
            f"{source}: {len(data) - end} trailing bytes after the payloads"
        )
    return header.index(lists, layout,
                        BM25Scorer(header.lengths, header.params))


def check_magic(data, source: str) -> None:
    """Refuse anything but a version-2 image, naming a version-1 file."""
    magic = bytes(data[:len(MAGIC)])
    if magic == b"BOSSIDX1":
        raise InvertedIndexError(
            f"{source} is a version 1 .bossx file; this reader takes "
            f"version {FORMAT_VERSION}: rebuild the index"
        )
    if magic != MAGIC:
        raise InvertedIndexError(f"{source} is not a BOSSIDX2 file")


def read_image(data, source: str
               ) -> Tuple[ImageHeader, Dict[str, CompressedPostingList],
                          AddressSpaceLayout, int]:
    """Read one version-2 image from the start of ``data``.

    Returns ``(header, lists, layout, end)``, ``end`` being the offset
    just past the payloads. Every check the query path relies on runs
    here, over whole columns: a damaged or hostile image raises
    :class:`InvertedIndexError` naming ``source``, never an
    ``IndexError`` later.
    """
    check_magic(data, source)
    if len(data) < _HEADER.size:
        raise InvertedIndexError(f"{source}: truncated header")
    (_magic, num_docs, num_terms, num_blocks, name_bytes, payload_bytes,
     total_tokens, avgdl, k1, b) = _HEADER.unpack_from(data, 0)
    offset = _HEADER.size

    def fail(message: str):
        raise InvertedIndexError(f"{source}: {message}")

    def take(what: str, dtype, count: int) -> np.ndarray:
        nonlocal offset
        nbytes = np.dtype(dtype).itemsize * count
        if offset + nbytes > len(data):
            fail(f"truncated {what}")
        offset += nbytes
        return np.frombuffer(data, dtype, count, offset - nbytes)

    lengths = take("document table", "<u4", num_docs)
    directory = take("term directory", _DIRECTORY, num_terms)
    names = take("term names", "u1", name_bytes).tobytes()
    records = take("block records", RECORD, num_blocks)
    doc_bytes = take("doc/tf splits", "<u2", num_blocks)
    take("payloads", "u1", payload_bytes)
    payloads = data[offset - payload_bytes:offset]

    if not num_docs or not lengths.all():
        fail("the document table is empty or holds a zero length")
    name_ends = directory["name_end"].astype(np.int64)
    block_ends = directory["block_end"].astype(np.int64)
    sizes = directory["size"]
    ends = ((int(name_ends[-1]), int(block_ends[-1]), int(sizes.sum()))
            if num_terms else (0, 0, 0))
    if ends != (name_bytes, num_blocks, payload_bytes):
        fail("term directory does not cover its sections")
    block_starts = np.concatenate([[0], block_ends[:-1]])[:num_terms]
    if (np.diff(name_ends, prepend=0) < 0).any() or (
            block_ends <= block_starts).any():
        fail("term directory entries out of order or without blocks")

    packed = records["packed"].astype(np.int64)
    packed = packed[:, 0] | packed[:, 1] << 8 | packed[:, 2] << 16
    firsts = records["first"].astype(np.int64)
    lasts = records["last"].astype(np.int64)
    if (firsts > lasts).any():
        fail(f"block {int(np.argmax(firsts > lasts))}: first > last")
    if num_blocks and lasts.max() >= num_docs:
        fail("a block's docIDs run past the document table")
    # Within a list, blocks follow one another; across lists they
    # restart. A block's payload runs to the next block's offset.
    list_base = np.concatenate([[0], np.cumsum(sizes.astype(np.int64))])
    heads = np.zeros(num_blocks, dtype=bool)
    heads[block_starts] = True
    if (firsts[1:] <= lasts[:-1])[~heads[1:]].any():
        fail("blocks of a list out of docID order")
    offsets = records["offset"].astype(np.int64)
    if (offsets[heads] != 0).any():
        fail("a list's first record offset is not 0")
    absolute = offsets + np.repeat(list_base[:-1], block_ends - block_starts)
    block_end = np.append(absolute[1:], payload_bytes)
    if (block_end < absolute).any():
        fail("a record offset runs past its list's payloads")
    if (absolute + doc_bytes > block_end).any():
        fail("a doc/tf split is longer than its block")
    counts = (packed & 0x7F) + 1
    if (np.add.reduceat(counts, block_starts) != directory["df"]).any():
        fail("a term's df does not match its block counts")
    schemes = [scheme.decode("ascii", "replace")
               for scheme in directory["scheme"].tolist()]
    unknown = set(schemes) - set(list_codecs())
    if unknown:
        fail(f"unknown compression scheme {sorted(unknown)[0]!r}")

    try:
        terms = [names[start:end].decode("utf-8") for start, end in zip(
            [0, *name_ends[:-1].tolist()], name_ends.tolist())]
    except UnicodeDecodeError:
        fail("term names are not UTF-8")
    if len(set(terms)) != num_terms:
        fail("duplicate term names")

    columns = BlockColumns(
        firsts.tolist(), lasts.tolist(),
        records["max"].astype(np.float64).tolist(), offsets.tolist(),
        counts.tolist(), (packed >> 7 & 0x1F).tolist(),
        (packed >> 12).tolist(), (offsets + doc_bytes).tolist())
    spans = list(zip(block_starts.tolist(), block_ends.tolist()))
    layout = AddressSpaceLayout()
    lists: Dict[str, CompressedPostingList] = {}
    entries = zip(terms, schemes, directory["df"].tolist(),
                  directory["idf"].tolist(), directory["max_score"].tolist(),
                  sizes.tolist(), list_base.tolist(),
                  zip(*[[col[lo:hi] for lo, hi in spans] for col in columns]))
    for term, scheme, df, idf, max_score, size, at, term_columns in entries:
        lists[term] = CompressedPostingList(
            term, scheme, df, idf, max_score, layout.allocate(term, size),
            BlockColumns(*term_columns), payloads[at:at + size])
    header = ImageHeader(lengths, total_tokens, avgdl,
                         BM25Parameters(k1=k1, b=b))
    return header, lists, layout, offset
