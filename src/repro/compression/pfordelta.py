"""PForDelta (PFD) and OptPForDelta (OptPFD) codecs.

PFD (Zukowski et al. [77] in the paper) picks a frame bit width ``b`` that
covers a large majority of a block's values and *patches* the remaining
values ("exceptions") out of band:

* the main frame stores the low ``b`` bits of **every** value, so the
  hardware can decode the frame with a fixed-width extractor;
* each exception's position and its high bits (``value >> b``) are stored
  in a trailing exception section.

Classic PFD selects the smallest ``b`` whose frame covers at least 90% of
the values (paper Section VI). OptPFD (Yan, Ding & Suel [68]) instead
scans all widths and keeps the one whose *total* encoded size — frame plus
exception section — is smallest. The paper's evaluation uses OptPFD only
("Since OptPFD outperforms PFD, we only consider the former"), but we
implement both because PFD is the base scheme and its coverage rule is the
classic point of comparison.

Streams longer than one frame are split into segments of 128 values (the
paper's block granularity), each carrying its own header so the frame
width adapts to local value magnitudes.

Per-segment layout (all multi-byte fields little-endian):

====== ==========================================================
offset field
====== ==========================================================
0      frame bit width ``b`` (1 byte)
1      exception count ``n_exc`` (1 byte)
2      frame: ``seg_count`` fields of ``b`` bits, LSB-first packing
...    exception section: ``n_exc`` records of (position: 1 byte,
       high bits: VariableByte)
====== ==========================================================
"""

from __future__ import annotations

from array import array
from itertools import accumulate
from operator import mul
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.compression.base import DEFAULT_REGISTRY, Codec
from repro.compression.bitio import BitReader, pack_fields, unpack_frames
from repro.compression.varbyte import VarByteCodec
from repro.errors import CompressionError

#: PFD's classic coverage rule: the frame width must represent at least
#: this fraction of the block's values directly.
PFD_COVERAGE = 0.90

#: Values per internal segment; matches the paper's 128-value blocks.
SEGMENT_SIZE = 128

_VB = VarByteCodec()

#: Exception-section bytes of a value ``d + 1`` bits wider than the
#: frame: 1 (position) + ceil((d + 1) / 7) (VariableByte high bits).
_PATCH_BYTES = tuple(1 + (d + 7) // 7 for d in range(32))


def _histogram(widths: bytes) -> List[int]:
    """``histogram[b]``: how many of a segment's values are ``b`` bits long.

    At most 33 bins; frame-width selection and the encoded size are
    functions of it alone.
    """
    return [widths.count(b) for b in range(max(widths, default=0) + 1)]


def _segment_size(histogram: Sequence[int], count: int, width: int) -> int:
    """Encoded bytes of a segment of ``count`` values with this histogram
    at frame ``width``: 2 (header) + ceil(count * width / 8) (frame) +
    the patches of every value longer than ``width`` bits."""
    return (2 + (count * width + 7) // 8
            + sum(map(mul, histogram[width + 1:], _PATCH_BYTES)))


def _encode_segment(values: Sequence[int], widths: bytes,
                    width: int) -> bytes:
    """Encode one segment with frame width ``width``, patching exceptions.

    ``widths`` is the segment's bit-length column: the values wider
    than the frame are the exceptions.
    """
    if max(widths, default=0) <= width:
        return bytes([width, 0]) + pack_fields(values, width)
    mask = (1 << width) - 1
    patches = bytearray()
    n_exc = 0
    for position, bit_length in enumerate(widths):
        if bit_length > width:
            n_exc += 1
            patches.append(position)
            patches += _VB.encode([values[position] >> width])
    if n_exc > 255:
        raise CompressionError("PFD: more than 255 exceptions in a segment")
    return (bytes([width, n_exc])
            + pack_fields([v & mask for v in values], width)
            + patches)


def _decode_segment(data: bytes, offset: int, count: int) -> Tuple[List[int], int]:
    """Decode one segment starting at ``offset``; return (values, next offset)."""
    if offset + 2 > len(data):
        raise CompressionError("PFD: truncated segment header")
    width = data[offset]
    n_exc = data[offset + 1]
    frame_bytes = (count * width + 7) // 8
    reader = BitReader(data, offset=offset + 2)
    values = reader.read_many(width, count) if width else [0] * count
    pos = offset + 2 + frame_bytes
    for _ in range(n_exc):
        if pos >= len(data):
            raise CompressionError("PFD: truncated exception section")
        position = data[pos]
        pos += 1
        # VB values terminate at the first byte with the MSB flag set.
        end = pos
        while end < len(data) and not (data[end] & 0x80):
            end += 1
        if end >= len(data):
            raise CompressionError("PFD: unterminated exception value")
        end += 1
        high = _VB.decode(data[pos:end], 1)[0]
        if position >= count:
            raise CompressionError(
                f"PFD: exception position {position} out of range"
            )
        values[position] |= high << width
        pos = end
    return values, pos


def _decode_stream(data: bytes, count: int) -> List[int]:
    values: List[int] = []
    offset = 0
    while len(values) < count:
        seg_count = min(SEGMENT_SIZE, count - len(values))
        seg_values, offset = _decode_segment(data, offset, seg_count)
        values.extend(seg_values)
    return values


def _decode_segment_fast(data: bytes, offset: int,
                         count: int) -> Tuple[List[int], int]:
    """Bulk variant of :func:`_decode_segment`: whole-frame extraction.

    The LSB-first packed frame is read as one big little-endian integer
    and sliced by shifting, instead of walking a :class:`BitReader` one
    field at a time. Exceptions are patched identically to the
    reference decoder.
    """
    if offset + 2 > len(data):
        raise CompressionError("PFD: truncated segment header")
    width = data[offset]
    n_exc = data[offset + 1]
    frame_bytes = (count * width + 7) // 8
    frame_end = offset + 2 + frame_bytes
    if frame_end > len(data):
        raise CompressionError("PFD: truncated input: frame cut short")
    if width:
        frame = int.from_bytes(data[offset + 2:frame_end], "little")
        mask = (1 << width) - 1
        values = [(frame >> shift) & mask
                  for shift in range(0, count * width, width)]
    else:
        values = [0] * count
    pos = frame_end
    for _ in range(n_exc):
        if pos >= len(data):
            raise CompressionError("PFD: truncated exception section")
        position = data[pos]
        pos += 1
        end = pos
        while end < len(data) and not (data[end] & 0x80):
            end += 1
        if end >= len(data):
            raise CompressionError("PFD: unterminated exception value")
        end += 1
        high = _VB.decode(data[pos:end], 1)[0]
        if position >= count:
            raise CompressionError(
                f"PFD: exception position {position} out of range"
            )
        values[position] |= high << width
        pos = end
    return values, pos


class _PatchedFrameCodec(Codec):
    """Shared encode/decode driver; subclasses choose the frame width."""

    max_value_bits = 32
    _one_pass_from = 160

    def encode(self, values: Sequence[int],
               widths: Optional[bytes] = None) -> bytes:
        widths = self._widths(values, widths)
        segments = []
        # An empty stream still carries one (empty) segment header.
        for start in range(0, max(1, len(widths)), SEGMENT_SIZE):
            segment = widths[start:start + SEGMENT_SIZE]
            segments.append(_encode_segment(
                values[start:start + SEGMENT_SIZE], segment,
                self._choose_frame(_histogram(segment))[0],
            ))
        return b"".join(segments)

    def compressed_size(self, values: Sequence[int],
                        widths: Optional[bytes] = None) -> int:
        widths = self._widths(values, widths)
        size = 0
        for start in range(0, max(1, len(widths)), SEGMENT_SIZE):
            segment = widths[start:start + SEGMENT_SIZE]
            size += self._choose_frame(_histogram(segment))[1]
        return size

    def decode(self, data: bytes, count: int) -> List[int]:
        return _decode_stream(data, count)

    def decode_block(self, data: bytes, count: int) -> array:
        values: List[int] = []
        offset = 0
        while len(values) < count:
            seg_count = min(SEGMENT_SIZE, count - len(values))
            seg_values, offset = _decode_segment_fast(data, offset, seg_count)
            values.extend(seg_values)
        try:
            return array("I", values)
        except OverflowError:
            raise CompressionError(
                f"{self.name}: decoded value exceeds 32 bits"
            ) from None

    def _decode_in_one_pass(self, payloads: Sequence,
                            counts: Sequence[int]) -> np.ndarray:
        """The segment headers and exception sections are walked in
        Python (they are a few bytes per block); every frame of the
        list is then unpacked in one numpy pass and the patches OR-ed
        in. Raises where :meth:`decode_block` raises; a frame wider
        than 32 bits, which only a corrupt payload has, takes the
        payload loop so that it fails (or not) exactly as there."""
        buffer = b"".join(payloads)
        starts: List[int] = []
        widths: List[int] = []
        sizes: List[int] = []
        at: List[int] = []  # a patched value's index in the output
        patches: List[int] = []  # its high bits, already shifted
        end = produced = 0
        for data, count in zip(payloads, counts):
            offset, end = end, end + len(data)
            for first in range(0, count, SEGMENT_SIZE):
                size = min(SEGMENT_SIZE, count - first)
                if offset + 2 > end:
                    raise CompressionError("PFD: truncated segment header")
                width = buffer[offset]
                if width > 32:
                    return self._decode_each(payloads, counts)
                pos = offset + 2 + (size * width + 7) // 8
                if pos > end:
                    raise CompressionError(
                        "PFD: truncated input: frame cut short")
                starts.append(offset + 2)
                widths.append(width)
                sizes.append(size)
                for _ in range(buffer[offset + 1]):
                    # Position byte, then the high bits in VB: most
                    # significant group first, the terminator flag on
                    # the last byte.
                    if pos + 1 >= end:
                        raise CompressionError(
                            "PFD: truncated exception section"
                            if pos >= end else
                            "PFD: unterminated exception value")
                    position = buffer[pos]
                    byte = buffer[pos + 1]
                    pos += 2
                    high = 0
                    while not byte & 0x80:
                        if pos >= end:
                            raise CompressionError(
                                "PFD: unterminated exception value")
                        high = high << 7 | byte
                        byte = buffer[pos]
                        pos += 1
                    high = high << 7 | byte & 0x7F
                    if position >= size:
                        raise CompressionError(
                            f"PFD: exception position {position} "
                            f"out of range")
                    if high << width > 0xFFFFFFFF:
                        raise CompressionError(
                            f"{self.name}: decoded value exceeds 32 bits")
                    at.append(produced + position)
                    patches.append(high << width)
                offset = pos
                produced += size
        values = unpack_frames(buffer, starts, widths, sizes)
        if at:
            np.bitwise_or.at(values, at, np.array(patches, dtype=np.uint64))
        return values.astype(np.uint32)

    def _choose_frame(self, histogram: Sequence[int]) -> Tuple[int, int]:
        """``(frame width, encoded bytes)`` for a segment with this
        bit-length histogram."""
        raise NotImplementedError


@DEFAULT_REGISTRY.register
class PFDCodec(_PatchedFrameCodec):
    """Patched frame-of-reference with the classic 90% coverage rule."""

    name = "PFD"

    def _choose_frame(self, histogram: Sequence[int]) -> Tuple[int, int]:
        # Smallest width covering at least PFD_COVERAGE of the values:
        # the width at the ceil(coverage * n)-th order statistic.
        count = sum(histogram)
        quantile_index = min(
            count - 1,
            max(0, int(PFD_COVERAGE * count + 0.999999) - 1),
        )
        width = next(
            width for width, covered in enumerate(accumulate(histogram))
            if covered > quantile_index
        )
        return width, _segment_size(histogram, count, width)


@DEFAULT_REGISTRY.register
class OptPFDCodec(_PatchedFrameCodec):
    """PFD variant that scans all frame widths for the smallest encoding."""

    name = "OptPFD"

    def _choose_frame(self, histogram: Sequence[int]) -> Tuple[int, int]:
        # The narrowest of the widths with the smallest size. A segment
        # holds at most SEGMENT_SIZE values, so no width needs more
        # than 255 patches.
        count = sum(histogram)
        sizes = [_segment_size(histogram, count, width)
                 for width in range(len(histogram))]
        smallest = min(sizes)
        return sizes.index(smallest), smallest
