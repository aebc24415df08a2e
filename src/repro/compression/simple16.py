"""Simple16 (S16) codec.

S16 (Zhang, Long & Suel [73] in the paper) packs as many integers as
possible into each 32-bit word: a 4-bit mode selector chooses one of 16
fixed field layouts for the remaining 28 payload bits. Mixed-width modes
(e.g. seven 2-bit fields followed by fourteen 1-bit fields) let the scheme
adapt to locally clustered value magnitudes, which is why S16 wins on the
paper's *dense* and *clustered* synthetic streams in Figure 3.

The encoder is greedy: for each output word it picks the first mode whose
field widths accommodate the next run of values. Values must fit in 28
bits; wider values are a :class:`CompressionError` (the index layer routes
such blocks to another scheme via the hybrid selector).

The final word of a stream may be partially filled; unused fields are
zero-padded, and the decoder relies on the caller-supplied ``count`` to
stop — mirroring the element-count field of the paper's block metadata.
"""

from __future__ import annotations

import struct
from typing import List, Sequence, Tuple

from repro.compression.base import DEFAULT_REGISTRY, Codec
from repro.errors import CompressionError

#: The 16 field layouts. Each entry lists the field widths of one mode and
#: sums to exactly 28 bits. Ordered from narrowest (most values per word)
#: to widest so the greedy encoder prefers denser packings.
S16_MODES: Tuple[Tuple[int, ...], ...] = (
    (1,) * 28,
    (2,) * 7 + (1,) * 14,
    (1,) * 7 + (2,) * 7 + (1,) * 7,
    (1,) * 14 + (2,) * 7,
    (2,) * 14,
    (4,) * 1 + (3,) * 8,
    (3,) * 1 + (4,) * 4 + (3,) * 3,
    (4,) * 7,
    (5,) * 4 + (4,) * 2,
    (4,) * 2 + (5,) * 4,
    (6,) * 3 + (5,) * 2,
    (5,) * 2 + (6,) * 3,
    (7,) * 4,
    (9,) * 2 + (10,) * 1,
    (14,) * 2,
    (28,) * 1,
)

assert all(sum(mode) == 28 for mode in S16_MODES)


@DEFAULT_REGISTRY.register
class Simple16Codec(Codec):
    """Word-aligned packing with 16 selectable 28-bit field layouts."""

    name = "S16"
    max_value_bits = 28

    def encode(self, values: Sequence[int]) -> bytes:
        self._check_values(values)
        out = bytearray()
        position = 0
        while position < len(values):
            selector, consumed = self._choose_mode(values, position)
            word = selector
            mode = S16_MODES[selector]
            shift = 4
            for field_index, width in enumerate(mode):
                if field_index < consumed:
                    word |= values[position + field_index] << shift
                shift += width
            out.extend(struct.pack("<I", word))
            position += consumed
        return bytes(out)

    def decode(self, data: bytes, count: int) -> List[int]:
        if len(data) % 4:
            raise CompressionError("S16: payload is not word aligned")
        values: List[int] = []
        for (word,) in struct.iter_unpack("<I", data):
            selector = word & 0xF
            payload = word >> 4
            for width in S16_MODES[selector]:
                values.append(payload & ((1 << width) - 1))
                payload >>= width
                if len(values) == count:
                    return values
        if len(values) < count:
            raise CompressionError(
                f"S16: stream ended after {len(values)} of {count} values"
            )
        return values

    @staticmethod
    def _choose_mode(values: Sequence[int], position: int) -> Tuple[int, int]:
        """Pick the first mode that fits the upcoming values.

        Returns ``(selector, values_consumed)``. A mode fits if every one
        of its fields can hold the corresponding upcoming value; when the
        tail of the stream is shorter than the mode, only the available
        values need to fit (the rest of the word is padding).
        """
        remaining = len(values) - position
        for selector, mode in enumerate(S16_MODES):
            takes = min(len(mode), remaining)
            if all(
                values[position + i].bit_length() <= mode[i]
                for i in range(takes)
            ):
                return selector, takes
        raise CompressionError(
            f"S16: value {values[position]} does not fit any mode"
        )
