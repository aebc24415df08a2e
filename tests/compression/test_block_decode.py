"""Property tests for the bulk ``decode_block`` fast path.

For every registered codec and a wide randomized payload corpus, the
fast path must agree value-for-value with the per-value reference
decoder — ``decode_block(encode(v)) == decode(encode(v)) == v`` — and
return an ``array('I')``. The corpus includes the cases the fast paths
special-case: lengths straddling the 128-value block size (whole-word
padding, segment boundaries), max-bit-width values (widest frames,
exception-heavy PFD segments), zero runs (S8b run modes, BP width 0),
and mixed magnitudes (S16 mode switching, GVB length mixing).
"""

import random
import struct
from array import array

import pytest

from repro.compression import get_codec, list_codecs
from repro.errors import CompressionError
from repro.index import BLOCK_SIZE

ALL_SCHEMES = sorted(list_codecs())

#: Lengths around the block-size boundaries the index layer produces.
STRADDLE_LENGTHS = (1, 2, BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1,
                    2 * BLOCK_SIZE, 2 * BLOCK_SIZE + 3)


def _payload_corpus(scheme):
    """Randomized + structured value lists for one codec."""
    codec = get_codec(scheme)
    top = (1 << codec.max_value_bits) - 1
    rng = random.Random(0xB055 ^ hash(scheme))
    corpus = {
        "empty": [],
        "zeros": [0] * BLOCK_SIZE,
        "max-width": [top] * (BLOCK_SIZE + 1),
        "max-and-zero": [top, 0] * BLOCK_SIZE,
        "small-gaps": [rng.randrange(4) for _ in range(3 * BLOCK_SIZE)],
        "mixed-magnitude": [
            rng.randrange(top + 1) if i % 7 == 0 else rng.randrange(16)
            for i in range(2 * BLOCK_SIZE + 1)
        ],
        "uniform-random": [rng.randrange(top + 1) for _ in range(200)],
    }
    for length in STRADDLE_LENGTHS:
        corpus[f"straddle-{length}"] = [
            rng.randrange(1 << min(16, codec.max_value_bits))
            for _ in range(length)
        ]
    return corpus


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_decode_block_matches_reference_and_input(scheme):
    codec = get_codec(scheme)
    for case, values in _payload_corpus(scheme).items():
        encoded = codec.encode(values)
        reference = codec.decode(encoded, len(values))
        bulk = codec.decode_block(encoded, len(values))
        assert list(bulk) == reference == values, f"{scheme}: {case}"


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_decode_block_returns_unsigned_array(scheme):
    codec = get_codec(scheme)
    bulk = codec.decode_block(codec.encode([1, 2, 3]), 3)
    assert isinstance(bulk, array)
    assert bulk.typecode == "I"


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_decode_block_raises_on_heavy_truncation(scheme):
    """Cutting the payload below one value's worth of bytes must raise.

    (Some bit-packed schemes tolerate mild truncation by design —
    ``test_fuzz_boundaries`` pins the strict per-prefix behaviour for
    the byte-oriented schemes.)
    """
    codec = get_codec(scheme)
    values = list(range(0, 2 * BLOCK_SIZE, 2))
    encoded = codec.encode(values)
    with pytest.raises(CompressionError):
        codec.decode_block(b"", len(values))
    with pytest.raises(CompressionError):
        codec.decode_block(encoded[:1], len(values))


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_decode_block_randomized_against_reference(scheme):
    """Pure random sweep: many short payloads, arbitrary magnitudes."""
    codec = get_codec(scheme)
    top = (1 << codec.max_value_bits) - 1
    rng = random.Random(hash(scheme) & 0xFFFFF)
    for _ in range(50):
        length = rng.randrange(0, 3 * BLOCK_SIZE)
        width = rng.choice((1, 4, 8, 12, codec.max_value_bits))
        values = [rng.randrange(min(top, (1 << width) - 1) + 1)
                  for _ in range(length)]
        encoded = codec.encode(values)
        assert list(codec.decode_block(encoded, length)) == \
            codec.decode(encoded, length) == values


def test_s8b_corrupt_wide_field_raises_compression_error():
    """A selector-15 word carries one 60-bit field: a corrupt payload can
    hold a value no ``array('I')`` slot takes, which must surface as a
    :class:`CompressionError`, not an ``OverflowError``."""
    codec = get_codec("S8b")
    word = (1 << 40) << 4 | 15
    with pytest.raises(CompressionError):
        codec.decode_block(struct.pack("<Q", word), 1)
