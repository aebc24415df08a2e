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

Which mode a word takes depends only on the bit lengths of the upcoming
values, and a layout — at most three runs of equal-width fields — is a
regular expression over the stream's bit-length column
(:meth:`Codec._widths`). "First mode that fits", word after word, is
therefore one alternation scanned over that column at C speed; it is
also all the encoded size depends on.

The final word of a stream may be partially filled; unused fields are
zero-padded, and the decoder relies on the caller-supplied ``count`` to
stop — mirroring the element-count field of the paper's block metadata.
"""

from __future__ import annotations

import re
import struct
from array import array
from itertools import accumulate, groupby
from operator import lshift
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.compression.base import DEFAULT_REGISTRY, Codec, word_layouts
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


def _layout_pattern(mode: Tuple[int, ...]) -> bytes:
    """``mode`` as a regular expression over a bit-length column.

    A run of ``n`` fields ``w`` bits wide matches ``n`` bytes no larger
    than ``w``. A word fits when every run matches in full — or, at the
    tail of the stream, when the values that are left fit the fields
    they reach and the column ends there (the rest of the word is
    padding). A word holds at least one value.
    """
    runs = [(width, len(tuple(fields))) for width, fields in groupby(mode)]
    pattern = b""
    for index in reversed(range(len(runs))):
        width, count = runs[index]
        fits = b"[\\x00-\\x%02x]" % width
        whole = fits + b"{%d}" % count
        if pattern:
            whole += b"(?:" + pattern + b")"
        fewest = 0 if index else 1
        if fewest < count:
            whole += b"|" + fits + b"{%d,%d}\\Z" % (fewest, count - 1)
        pattern = whole
    return pattern


#: One capture group per selector, in greedy order: scanned over a
#: validated bit-length column, match ``i`` is word ``i``, its
#: ``lastindex - 1`` the selector and its span the values it takes.
#: (Every byte up to 28 matches mode 15, so the scan skips nothing.)
_WORDS = re.compile(
    b"|".join(b"(" + _layout_pattern(mode) + b")" for mode in S16_MODES)
)

#: Per selector, the bit position of every field within the 32-bit word
#: (the selector occupies bits 0-3).
S16_SHIFTS = tuple(
    tuple(accumulate(mode[:-1], initial=4)) for mode in S16_MODES
)

#: Per selector, a generated ``lambda w: (w >> 4 & 1, w >> 5 & 1, ...)``
#: pulling every field out of a word in one expression: the bulk
#: decoder's whole inner loop.
_EXTRACT = tuple(
    eval("lambda w: (" + "".join(
        f"w >> {shift} & {(1 << width) - 1}, "
        for shift, width in zip(shifts, mode)
    ) + ")")
    for shifts, mode in zip(S16_SHIFTS, S16_MODES)
)

#: The layouts as the list decoder's selector-indexed numpy tables.
_LAYOUTS = word_layouts("<u4", S16_MODES, [len(mode) for mode in S16_MODES])


@DEFAULT_REGISTRY.register
class Simple16Codec(Codec):
    """Word-aligned packing with 16 selectable 28-bit field layouts."""

    name = "S16"
    max_value_bits = 28
    _one_pass_from = 192

    def encode(self, values: Sequence[int],
               widths: Optional[bytes] = None) -> bytes:
        words = []
        for word in _WORDS.finditer(self._widths(values, widths)):
            selector = word.lastindex - 1
            # Fields never overlap, so summing the shifted values is
            # OR-ing them.
            words.append(sum(
                map(lshift, values[word.start():word.end()],
                    S16_SHIFTS[selector]),
                selector,
            ))
        return struct.pack(f"<{len(words)}I", *words)

    def compressed_size(self, values: Sequence[int],
                        widths: Optional[bytes] = None) -> int:
        return 4 * sum(1 for _ in _WORDS.finditer(
            self._widths(values, widths)))

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

    def decode_block(self, data: bytes, count: int) -> array:
        return self._decode_words(data, count, "I", _EXTRACT)

    def _decode_in_one_pass(self, payloads: Sequence,
                            counts: Sequence[int]) -> np.ndarray:
        return self._decode_word_lists(payloads, counts, _LAYOUTS)
