"""Bit-Packing (BP) codec.

BP (Lemire & Boytsov [40] in the paper) finds the minimum number of bits
``b`` needed to represent the largest value in a block and encodes every
value with exactly ``b`` bits. The encoded payload is a 1-byte header
carrying ``b`` followed by ``ceil(count * b / 8)`` packed bytes.

A width of zero (all values zero) costs only the header byte, which makes
BP surprisingly strong on ultra-dense d-gap streams.
"""

from __future__ import annotations

from array import array
from typing import List, Optional, Sequence

import numpy as np

from repro.compression.base import DEFAULT_REGISTRY, Codec
from repro.compression.bitio import BitReader, pack_fields, unpack_frames
from repro.errors import CompressionError


@DEFAULT_REGISTRY.register
class BitPackingCodec(Codec):
    """Fixed-width binary packing with a per-block width header."""

    name = "BP"
    max_value_bits = 32
    _one_pass_from = 160

    def encode(self, values: Sequence[int],
               widths: Optional[bytes] = None) -> bytes:
        width = max(self._widths(values, widths), default=0)
        return bytes([width]) + pack_fields(values, width)

    def compressed_size(self, values: Sequence[int],
                        widths: Optional[bytes] = None) -> int:
        widths = self._widths(values, widths)
        return 1 + (len(widths) * max(widths, default=0) + 7) // 8

    def decode(self, data: bytes, count: int) -> List[int]:
        if not data:
            raise CompressionError("BP: empty payload")
        width = data[0]
        if width > self.max_value_bits:
            raise CompressionError(f"BP: invalid bit width {width}")
        if width == 0:
            return [0] * count
        reader = BitReader(data, offset=1)
        return reader.read_many(width, count)

    def decode_block(self, data: bytes, count: int) -> array:
        if not data:
            raise CompressionError("BP: empty payload")
        width = data[0]
        if width > self.max_value_bits:
            raise CompressionError(f"BP: invalid bit width {width}")
        if width == 0 or count == 0:
            # array('I', bytes) deserializes raw little-endian words:
            # 4*count zero bytes is a zero-filled array of length count.
            return array("I", bytes(4 * count))
        frame_bytes = (count * width + 7) // 8
        if 1 + frame_bytes > len(data):
            raise CompressionError(
                f"BP: truncated input: {len(data) - 1} payload bytes "
                f"cannot hold {count} {width}-bit fields"
            )
        # Whole-block extraction: the LSB-first packed frame, read as one
        # big little-endian integer, exposes field i at bit i*width.
        frame = int.from_bytes(data[1:1 + frame_bytes], "little")
        mask = (1 << width) - 1
        return array(
            "I", [(frame >> shift) & mask
                  for shift in range(0, count * width, width)]
        )

    def _decode_in_one_pass(self, payloads: Sequence,
                            counts: Sequence[int]) -> np.ndarray:
        buffer = b"".join(payloads)
        starts = []
        widths = []
        end = 0
        for data, count in zip(payloads, counts):
            if not data:
                raise CompressionError("BP: empty payload")
            width = buffer[end]
            if width > self.max_value_bits:
                raise CompressionError(f"BP: invalid bit width {width}")
            if width and 1 + (count * width + 7) // 8 > len(data):
                raise CompressionError(
                    f"BP: truncated input: {len(data) - 1} payload bytes "
                    f"cannot hold {count} {width}-bit fields"
                )
            starts.append(end + 1)
            widths.append(width)
            end += len(data)
        return unpack_frames(buffer, starts, widths,
                             counts).astype(np.uint32)
