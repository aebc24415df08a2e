"""The seams of the width-pass write side.

Every encoder starts from one bit-length column (``Codec._widths``);
``compressed_size`` answers from it without a payload and the hybrid
selector sizes every candidate that way. Byte identity with the old
per-value encoders is pinned by ``test_encode_golden.py``; this file
pins the seams against each other and the greedy word choosers against
a brute-force chooser written here.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import HybridSelector, get_codec, list_codecs
from repro.compression.simple8b import S8B_MODES
from repro.compression.simple16 import S16_MODES
from repro.errors import CompressionError

from tests.write_side_golden import streams as golden_streams

#: In-range values mostly, with the occasional value only some codecs
#: hold (29-32 bits) and the occasional value none does.
values_strategy = st.lists(
    st.one_of(
        st.integers(0, 3),
        st.integers(0, (1 << 28) - 1),
        st.integers(0, (1 << 32) - 1),
        st.sampled_from([-1, 1 << 32, 1 << 300]),
    ),
    max_size=400,
)


def size_or_refusal(call, values):
    try:
        return call(values)
    except CompressionError as error:
        return str(error)


@settings(max_examples=120, deadline=None)
@given(values=values_strategy,
       name=st.sampled_from(sorted(list_codecs())))
def test_compressed_size_is_len_encode(values, name):
    """Same size on every stream ``encode`` takes, the same refusal on
    every stream it does not."""
    codec = get_codec(name)
    assert (size_or_refusal(codec.compressed_size, values)
            == size_or_refusal(lambda v: len(codec.encode(v)), values))


@pytest.mark.parametrize("name", list_codecs())
def test_compressed_size_on_the_golden_streams(name):
    codec = get_codec(name)
    for stream, values in golden_streams(codec.max_value_bits):
        assert (size_or_refusal(codec.compressed_size, values)
                == size_or_refusal(lambda v: len(codec.encode(v)), values)
                ), stream


def test_compressed_size_builds_no_payload(monkeypatch):
    """The paper's five answer from the widths; only GVB encodes."""
    values = [3, 1, 4, 1, 5, 9, 2, 6] * 40
    for name in list_codecs():
        codec = get_codec(name)
        monkeypatch.setattr(type(codec), "encode", None)
        if name == "GVB":
            with pytest.raises(TypeError):
                codec.compressed_size(values)
        else:
            assert codec.compressed_size(values) > 0


def test_widths_column_and_its_refusals():
    codec = get_codec("S16")
    assert codec._widths([0, 1, 2, 255, (1 << 28) - 1]) == bytes(
        [0, 1, 2, 8, 28])
    assert codec._widths([]) == b""
    with pytest.raises(CompressionError, match="exceeds 28-bit limit"):
        codec._widths([1, 1 << 28])
    # The first offender is named, whichever kind it is.
    with pytest.raises(CompressionError, match="negative value -2"):
        codec._widths([1, -2, 1 << 40])
    with pytest.raises(CompressionError, match="exceeds 28-bit limit"):
        codec._widths([1, 1 << 300, -2])


@settings(max_examples=80, deadline=None)
@given(values=values_strategy)
def test_selector_sizes_are_the_encoded_sizes(values):
    """``select(v).sizes`` is the per-codec ``len(encode(v))`` table,
    unrepresentable schemes absent."""
    selector = HybridSelector()
    expected = {}
    for name in selector.schemes:
        try:
            expected[name] = len(get_codec(name).encode(values))
        except CompressionError:
            pass
    if not expected:
        with pytest.raises(CompressionError,
                           match="no candidate scheme"):
            selector.select(values)
        return
    selection = selector.select(values)
    assert selection.sizes == expected
    assert selection.size == min(expected.values())
    assert selection.count == len(values)
    # Ties go to the earlier candidate.
    assert selection.scheme == next(
        name for name in selector.schemes
        if expected.get(name) == selection.size)


def test_selector_encodes_nothing(monkeypatch):
    selector = HybridSelector()
    for name in selector.schemes:
        monkeypatch.setattr(type(selector.codec(name)), "encode", None)
    assert selector.select([0, 5, 1 << 20] * 50).scheme in selector.schemes


def test_selector_tie_break_follows_candidate_order():
    # One zero: BP is 1 byte, VB is 1 byte.
    assert HybridSelector(["VB", "BP"]).select([0]).scheme == "VB"
    assert HybridSelector(["BP", "VB"]).select([0]).scheme == "BP"
    assert HybridSelector(["BP", "VB", "BP"]).select([0]).scheme == "BP"


# ----------------------------------------------------------------------
# The greedy choosers, word by word, against a brute-force chooser.
# ----------------------------------------------------------------------

def first_layout_that_fits(values, layouts):
    """Index of the first layout (a tuple of field widths) each of whose
    fields holds the corresponding upcoming value; a short tail only has
    to fit the fields it reaches."""
    for index, layout in enumerate(layouts):
        if all(value.bit_length() <= width
               for value, width in zip(values, layout)):
            return index
    raise AssertionError("no layout fits")


def s16_words(values):
    """``(selector, values taken)`` per word, by brute force."""
    words, position = [], 0
    while position < len(values):
        selector = first_layout_that_fits(values[position:], S16_MODES)
        takes = min(len(S16_MODES[selector]), len(values) - position)
        words.append((selector, takes))
        position += takes
    return words


def s8b_words(values):
    """Same for S8b: the two zero-run rules, then the uniform layouts."""
    layouts = [(width,) * capacity for width, capacity in S8B_MODES[2:]]
    words, position = [], 0
    while position < len(values):
        rest = values[position:]
        zeros = next((i for i, v in enumerate(rest[:240]) if v),
                     len(rest[:240]))
        if zeros == 240 or (zeros == len(rest) and zeros > 60):
            selector, takes = 0, zeros
        elif zeros >= 120:
            selector, takes = 1, 120
        else:
            selector = 2 + first_layout_that_fits(rest, layouts)
            takes = min(S8B_MODES[selector][1], len(rest))
        words.append((selector, takes))
        position += takes
    return words


def emitted_words(name, values):
    """What ``encode`` actually wrote: each word's selector, and how
    many values it carried (read back through the oracle decoder)."""
    codec = get_codec(name)
    size = {"S16": 4, "S8b": 8}[name]
    payload = codec.encode(values)
    assert codec.decode(payload, len(values)) == values
    words, position = [], 0
    for offset in range(0, len(payload), size):
        selector = payload[offset] & 0xF
        if name == "S16":
            capacity = len(S16_MODES[selector])
        else:
            capacity = S8B_MODES[selector][1]
        takes = min(capacity, len(values) - position)
        words.append((selector, takes))
        position += takes
    return words


def chooser_streams():
    rng = random.Random(20)
    for _ in range(150):
        length = rng.choice((1, 7, 27, 28, 29, 60, 61, 121, 250, 500))
        top = rng.choice((1, 2, 3, 5, 8, 14, 28))
        yield [int(2 ** rng.uniform(0, top)) - 1 for _ in range(length)]
    for run in (59, 60, 61, 119, 120, 121, 239, 240, 241, 500):
        yield [0] * run
        yield [0] * run + [9]
        yield [9] + [0] * run + [9] + [0] * run


@pytest.mark.parametrize("name,brute_force",
                         [("S16", s16_words), ("S8b", s8b_words)])
def test_greedy_word_choices_match_brute_force(name, brute_force):
    for values in chooser_streams():
        assert emitted_words(name, values) == brute_force(values)
