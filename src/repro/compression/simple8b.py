"""Simple8b (S8b) codec.

S8b (Anh & Moffat [14] in the paper) is the 64-bit sibling of Simple16:
each output word spends 4 bits on a mode selector and packs uniform-width
fields into the remaining 60 payload bits. Two special run-length modes
encode long runs of zeros using no payload bits at all, which makes S8b
extremely effective on ultra-dense d-gap streams (where ``gap - 1`` is
almost always zero) — this is why S8b stars on the paper's *zipf* and
*dense* streams in Figure 3.

Mode table (selector: field width x count):

====== ===================================
0      240 zero values, no payload bits
1      120 zero values, no payload bits
2      1 bit x 60
3      2 bits x 30
4      3 bits x 20
5      4 bits x 15
6      5 bits x 12
7      6 bits x 10
8      7 bits x 8
9      8 bits x 7
10     10 bits x 6
11     12 bits x 5
12     15 bits x 4
13     20 bits x 3
14     30 bits x 2
15     60 bits x 1
====== ===================================
"""

from __future__ import annotations

import struct
from typing import List, Sequence, Tuple

from repro.compression.base import DEFAULT_REGISTRY, Codec
from repro.errors import CompressionError

#: ``(field_width_bits, values_per_word)`` per selector; width 0 encodes
#: a run of zeros of the given length.
S8B_MODES: Tuple[Tuple[int, int], ...] = (
    (0, 240),
    (0, 120),
    (1, 60),
    (2, 30),
    (3, 20),
    (4, 15),
    (5, 12),
    (6, 10),
    (7, 8),
    (8, 7),
    (10, 6),
    (12, 5),
    (15, 4),
    (20, 3),
    (30, 2),
    (60, 1),
)

@DEFAULT_REGISTRY.register
class Simple8bCodec(Codec):
    """64-bit word packing with uniform fields and zero-run modes."""

    name = "S8b"
    max_value_bits = 32  # values above 32 bits never arise from d-gaps

    def encode(self, values: Sequence[int]) -> bytes:
        self._check_values(values)
        out = bytearray()
        position = 0
        total = len(values)
        while position < total:
            selector, consumed = self._choose_mode(values, position)
            width, _capacity = S8B_MODES[selector]
            word = selector
            if width:
                shift = 4
                for i in range(consumed):
                    word |= values[position + i] << shift
                    shift += width
            out.extend(struct.pack("<Q", word))
            position += consumed
        return bytes(out)

    def decode(self, data: bytes, count: int) -> List[int]:
        if len(data) % 8:
            raise CompressionError("S8b: payload is not word aligned")
        values: List[int] = []
        for (word,) in struct.iter_unpack("<Q", data):
            selector = word & 0xF
            width, capacity = S8B_MODES[selector]
            if width == 0:
                take = min(capacity, count - len(values))
                values.extend([0] * take)
            else:
                payload = word >> 4
                mask = (1 << width) - 1
                for _ in range(capacity):
                    values.append(payload & mask)
                    payload >>= width
                    if len(values) == count:
                        break
            if len(values) == count:
                return values
        if len(values) < count:
            raise CompressionError(
                f"S8b: stream ended after {len(values)} of {count} values"
            )
        return values

    @staticmethod
    def _choose_mode(values: Sequence[int], position: int) -> Tuple[int, int]:
        """Pick the densest mode that fits the upcoming values.

        Zero-run modes are chosen when the upcoming run of zeros reaches
        the mode's length (or exhausts the stream); otherwise the first
        uniform-width mode whose width covers all of the next ``capacity``
        values wins.
        """
        total = len(values)
        remaining = total - position

        # Zero-run modes: only profitable when they fill the whole run
        # capacity or reach the end of the stream.
        zero_run = 0
        limit = min(remaining, 240)
        while zero_run < limit and values[position + zero_run] == 0:
            zero_run += 1
        for selector in (0, 1):
            capacity = S8B_MODES[selector][1]
            if zero_run >= capacity or (zero_run == remaining and zero_run > 60):
                return selector, min(zero_run, capacity)

        for selector in range(2, 16):
            width, capacity = S8B_MODES[selector]
            takes = min(capacity, remaining)
            if all(
                values[position + i].bit_length() <= width
                for i in range(takes)
            ):
                return selector, takes
        raise CompressionError(
            f"S8b: value {values[position]} does not fit any mode"
        )
