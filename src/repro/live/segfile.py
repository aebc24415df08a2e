"""Durable segment files: one sealed :class:`~repro.live.segments.
Segment` per file, bit-faithful to the in-memory original.

A segment file is a version-2 ``.bossx`` image
(:mod:`repro.index.binaryio`) followed by the segment's live section,
read by the same :func:`~repro.index.binaryio.read_image`. The image
alone would rebuild a plain :class:`~repro.index.bm25.BM25Scorer` over
its document table, but a live segment scores with a
:class:`~repro.live.stats.LiveBM25Scorer` snapshot — normalizer slots
for *every* docID ever allocated, with ``N`` and ``avgdl`` from the
live survivors. So the image's document table is the full allocated
length table, and the live section stores the scorer's other inputs:
the live document count and the exact live token total (an integer;
storing the derived float would not round-trip the division).
Loading re-runs the constructor the seal ran.

Layout (integers unsigned little-endian)::

    image          the segment's index, a complete BOSSIDX2 image
    live header    magic BOSSSEG2; u64 segment_id, tier,
                   stats_version, num_live, total_live_tokens; u32
                   doc count
    block_max_tfs  u32 per block, in the image's block order
    doc table      u32 docIDs, u32 lengths, u32 term counts (one per
                   doc), then u32 term numbers (directory order) of
                   every doc's terms in turn
    trailer        u32 CRC32 of everything before it

Files are written to a temp name and ``os.replace``-d into place, so a
crash never leaves a half-written file under the real name; the
whole-file checksum catches any other damage, and recovery falls back
to a deterministic rebuild from the WAL when a file fails to load.
"""

from __future__ import annotations

import io
import os
import struct
import zlib
from itertools import accumulate
from pathlib import Path
from typing import Dict, Tuple, Union

import numpy as np

from repro.errors import InvertedIndexError
from repro.index.binaryio import read_image, write_image
from repro.live.segments import Segment
from repro.live.stats import LiveBM25Scorer

SEG_MAGIC = b"BOSSSEG2"

_CRC = struct.Struct("<I")
_LIVE = struct.Struct("<8sQQQQQI")


def segment_file_name(segment_id: int) -> str:
    """Canonical on-disk name for one segment."""
    return f"seg-{segment_id:08d}.seg"


def encode_segment(segment: Segment) -> bytes:
    """Serialize one segment (without the CRC trailer)."""
    scorer = segment.index.scorer
    if not isinstance(scorer, LiveBM25Scorer):
        raise InvertedIndexError(
            f"segment {segment.segment_id} was not sealed with live "
            f"statistics; refusing to persist a non-live scorer"
        )
    out = io.BytesIO()
    write_image(out, segment.index)
    terms = segment.index.terms
    number = {term: i for i, term in enumerate(terms)}
    doc_terms = [segment.doc_terms[doc] for doc in segment.doc_lengths]
    out.write(_LIVE.pack(SEG_MAGIC, segment.segment_id, segment.tier,
                         segment.stats_version, scorer.num_docs,
                         round(scorer.avgdl * scorer.num_docs),
                         len(doc_terms)))
    for column in (
            [tf for term in terms for tf in segment.block_max_tfs[term]],
            list(segment.doc_lengths), list(segment.doc_lengths.values()),
            [len(names) for names in doc_terms],
            [number[name] for names in doc_terms for name in names]):
        out.write(np.array(column, dtype="<u4").tobytes())
    return out.getvalue()


def save_segment(segment: Segment, path: Union[str, Path]) -> int:
    """Atomically persist ``segment``; returns the file size in bytes.

    The CRC32 trailer covers the whole body, so a reader can prove the
    file intact without trusting anything else on disk.
    """
    body = encode_segment(segment)
    data = body + _CRC.pack(zlib.crc32(body))
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as out:
        out.write(data)
        out.flush()
    os.replace(tmp, path)
    return len(data)


def load_segment(path: Union[str, Path]) -> Tuple[Segment, int]:
    """Load one segment file; returns ``(segment, file_size_bytes)``.

    Raises :class:`~repro.errors.InvertedIndexError` on any damage
    (bad magic, failed checksum, truncated body) — recovery treats that
    as "file lost" and rebuilds the segment from the WAL instead.
    """
    data = Path(path).read_bytes()
    if len(data) < _CRC.size:
        raise InvertedIndexError(f"{path}: segment file truncated")
    body, (crc,) = data[:-_CRC.size], _CRC.unpack(data[-_CRC.size:])
    if zlib.crc32(body) != crc:
        raise InvertedIndexError(f"{path}: segment checksum mismatch")
    header, lists, layout, offset = read_image(body, str(path))
    if offset + _LIVE.size > len(body):
        raise InvertedIndexError(f"{path}: truncated live section")
    (magic, segment_id, tier, stats_version, num_live, total_live_tokens,
     num_docs) = _LIVE.unpack_from(body, offset)
    if magic != SEG_MAGIC:
        raise InvertedIndexError(f"{path} has no {SEG_MAGIC!r} live section")
    offset += _LIVE.size
    if (len(body) - offset) % 4:
        raise InvertedIndexError(f"{path}: ragged live section")
    words = np.frombuffer(body, "<u4", offset=offset)
    terms = list(lists)
    block_ends = list(accumulate(plist.num_blocks for plist in lists.values()))
    tf_maxima, doc_ids, lengths, counts, numbers = np.split(words, list(
        accumulate((block_ends[-1] if terms else 0, num_docs, num_docs,
                    num_docs))))
    if len(counts) != num_docs or len(numbers) != int(counts.sum()) or (
            len(numbers) and numbers.max() >= len(terms)):
        raise InvertedIndexError(f"{path}: live section does not add up")
    names = [terms[i] for i in numbers.tolist()]
    doc_terms: Dict[int, Tuple[str, ...]] = {
        doc: tuple(names[end - count:end]) for doc, count, end in zip(
            doc_ids.tolist(), counts.tolist(), accumulate(counts.tolist()))
    }
    tf_maxima = tf_maxima.tolist()
    block_max_tfs = {
        term: tf_maxima[end - plist.num_blocks:end]
        for (term, plist), end in zip(lists.items(), block_ends)
    }
    # The header's statistics are those IndexBuilder.build() derived
    # from this scorer at seal time.
    scorer = LiveBM25Scorer(header.lengths, num_live, total_live_tokens,
                            header.params)
    return Segment(
        segment_id=segment_id,
        index=header.index(lists, layout, scorer),
        tier=tier,
        stats_version=stats_version,
        doc_lengths=dict(zip(doc_ids.tolist(), lengths.tolist())),
        doc_terms=doc_terms,
        block_max_tfs=block_max_tfs,
    ), len(data)
