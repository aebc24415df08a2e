"""Little-endian bit-stream writer and reader shared by the packed codecs.

Bits are packed LSB-first within each byte: the first bit written lands in
bit 0 of byte 0. This matches how a hardware extractor with a barrel
shifter would consume the stream (paper Figure 6, stage 1) and keeps the
byte layout independent of the host's endianness.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import CompressionError


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
