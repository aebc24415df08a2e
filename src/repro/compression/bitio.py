"""Little-endian bit-stream writer and reader shared by the packed codecs.

Bits are packed LSB-first within each byte: the first bit written lands in
bit 0 of byte 0. This matches how a hardware extractor with a barrel
shifter would consume the stream (paper Figure 6, stage 1) and keeps the
byte layout independent of the host's endianness.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.errors import CompressionError

#: ``_MASKS[w]``: the low ``w`` bits set, for every field width 0-32.
_MASKS = (np.uint64(1) << np.arange(33, dtype=np.uint64)) - np.uint64(1)


def pack_fields(values: Sequence[int], width: int) -> bytes:
    """``values`` as consecutive ``width``-bit fields, LSB-first.

    The fields are assembled as one integer: field ``i`` sits at bit
    ``i * width`` of the little-endian frame, and a partial last byte is
    zero padded. The caller guarantees that every value fits in
    ``width`` bits (the encoders derive ``width`` from the values' own
    bit lengths, or mask first).
    """
    frame = 0
    for value in reversed(values):
        frame = frame << width | value
    return frame.to_bytes((len(values) * width + 7) // 8, "little")


def unpack_frames(buffer: bytes, starts: Sequence[int],
                  widths: Sequence[int],
                  counts: Sequence[int]) -> np.ndarray:
    """Every field of many packed frames, in frame order, as ``uint64``.

    Frame ``i`` starts at byte ``starts[i]`` of ``buffer`` and holds
    ``counts[i]`` fields of ``widths[i]`` bits (at most 32), packed as
    :func:`pack_fields` packs them. The caller has checked that every
    frame lies inside ``buffer``. The ``k``-th field of the output,
    ``j``-th of frame ``i``, starts at bit ``8 · starts[i] + j ·
    widths[i]``; it is one unaligned little-endian 8-byte load at that
    bit's byte, shifted right by the bit's offset in the byte (at most
    7, so 39 bits fit) and masked: one gather, one shift and one mask
    for the whole list.
    """
    padded = np.frombuffer(buffer + bytes(8), np.uint8)
    # loads[b]: the 8 bytes at buffer[b], read as one little-endian word.
    loads = np.ndarray((len(buffer) + 1,), "<u8", padded, 0, (1,))
    # Field k of frame i starts at bit k · w + (8 · start - first · w),
    # where ``first`` is the output index of the frame's first field.
    offsets = []
    first = 0
    for start, width, count in zip(starts, widths, counts):
        offsets.append(8 * start - first * width)
        first += count
    width = np.array(widths, dtype=np.int64).repeat(counts)
    bit = np.arange(first, dtype=np.int64)
    bit *= width
    bit += np.array(offsets, dtype=np.int64).repeat(counts)
    fields = loads.take(bit >> 3)
    fields >>= (bit & 7).view(np.uint64)
    fields &= _MASKS.take(width)
    return fields


class BitReader:
    """Reads variable-width fields from a byte stream written LSB-first."""

    def __init__(self, data: bytes, offset: int = 0) -> None:
        self._data = data
        self._byte_pos = offset
        self._accumulator = 0
        self._bit_count = 0

    def read(self, width: int) -> int:
        """Consume and return the next ``width`` bits as an unsigned int."""
        if width < 0:
            raise CompressionError(f"negative field width {width}")
        while self._bit_count < width:
            if self._byte_pos >= len(self._data):
                raise CompressionError("bit stream exhausted")
            self._accumulator |= self._data[self._byte_pos] << self._bit_count
            self._byte_pos += 1
            self._bit_count += 8
        value = self._accumulator & ((1 << width) - 1)
        self._accumulator >>= width
        self._bit_count -= width
        return value

    def read_many(self, width: int, count: int) -> List[int]:
        """Read ``count`` consecutive fields of identical ``width``."""
        return [self.read(width) for _ in range(count)]
