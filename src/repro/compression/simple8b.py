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

import re
import struct
from array import array
from operator import lshift
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

#: Per selector, the bit position of every field within the 64-bit word
#: (the selector occupies bits 0-3; the zero-run modes have no fields).
S8B_SHIFTS = tuple(
    tuple(range(4, 4 + width * capacity, width)) if width else ()
    for width, capacity in S8B_MODES
)

#: Per selector, a generated ``lambda w: (w >> 4 & 1, w >> 5 & 1, ...)``
#: pulling every field out of a word in one expression (a zero-run
#: mode's is a constant tuple of zeros): the bulk decoder's inner loop.
_EXTRACT = tuple(
    eval("lambda w: (" + "".join(
        f"w >> {shift} & {(1 << width) - 1}, " for shift in shifts
    ) + ("0, " * capacity if not width else "") + ")")
    for (width, capacity), shifts in zip(S8B_MODES, S8B_SHIFTS)
)


def _mode_pattern(width: int, capacity: int) -> bytes:
    """A uniform mode as a regular expression over a bit-length column:
    ``capacity`` bytes no larger than ``width``, or fewer (at least one)
    if the column ends there."""
    fits = b"[\\x00-\\x%02x]" % width
    pattern = fits + b"{%d}" % capacity
    if capacity > 1:
        pattern += b"|" + fits + b"{1,%d}\\Z" % (capacity - 1)
    return pattern


#: One capture group per selector, in greedy order: scanned over a
#: validated bit-length column, match ``i`` is word ``i``, its
#: ``lastindex - 1`` the selector and its span the values it takes.
#: A zero-run mode is taken when the upcoming zeros fill its length —
#: or, for selector 0, reach the end of the stream and outnumber the 60
#: zeros a 1-bit word would hold; otherwise the first uniform mode wide
#: enough for all of its next ``capacity`` values wins. (Every byte up
#: to 60 matches mode 15, so the scan skips nothing.)
_WORDS = re.compile(b"|".join(
    [b"(\\x00{240}|\\x00{61,239}\\Z)", b"(\\x00{120})"]
    + [b"(" + _mode_pattern(width, capacity) + b")"
       for width, capacity in S8B_MODES[2:]]
))


@DEFAULT_REGISTRY.register
class Simple8bCodec(Codec):
    """64-bit word packing with uniform fields and zero-run modes."""

    name = "S8b"
    max_value_bits = 32  # values above 32 bits never arise from d-gaps

    def encode(self, values: Sequence[int]) -> bytes:
        words = []
        for word in _WORDS.finditer(self._widths(values)):
            selector = word.lastindex - 1
            # Fields never overlap, so summing the shifted values is
            # OR-ing them; a zero-run word is its selector alone.
            words.append(sum(
                map(lshift, values[word.start():word.end()],
                    S8B_SHIFTS[selector]),
                selector,
            ))
        return struct.pack(f"<{len(words)}Q", *words)

    def compressed_size(self, values: Sequence[int]) -> int:
        return 8 * sum(1 for _ in _WORDS.finditer(self._widths(values)))

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

    def decode_block(self, data: bytes, count: int) -> array:
        return self._decode_words(data, count, "Q", _EXTRACT)
