"""The list decoder: ``Codec.decode_blocks`` and ``decode_arrays``.

``Codec.decode_blocks(payloads, counts)`` decodes every payload of a
posting list in one call and must equal the per-payload decoders value
for value: ``decode`` (the oracle) on every stream a codec accepts, and
``decode_block`` on every payload, corrupt ones included — it raises
:class:`CompressionError` exactly when some payload's ``decode_block``
would. ``CompressedPostingList.decode_arrays`` builds on it and must
equal ``decode_block_arrays`` block by block.

Four codecs run a numpy pass from a measured break-even list size on
(``Codec._one_pass_from``) and the payload loop below it; every
property is checked at the shipped sizes and again with the numpy pass
forced for every list, so short streams exercise it too.
"""

import random
from array import array
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import (
    BitPackingCodec,
    Simple8bCodec,
    Simple16Codec,
    get_codec,
    list_codecs,
)
from repro.compression.pfordelta import _PatchedFrameCodec
from repro.errors import CompressionError

from tests import write_side_golden as golden
from tests.conftest import build_random_index

ALL_CODECS = sorted(list_codecs())

#: The codec classes whose ``decode_blocks`` has a numpy pass.
ONE_PASS_CODECS = (BitPackingCodec, _PatchedFrameCodec, Simple16Codec,
                   Simple8bCodec)


@contextmanager
def numpy_pass(forced: bool):
    """With ``forced``, every non-empty list takes the numpy pass."""
    shipped = [codec._one_pass_from for codec in ONE_PASS_CODECS]
    if forced:
        for codec in ONE_PASS_CODECS:
            codec._one_pass_from = 1
    try:
        yield
    finally:
        for codec, value in zip(ONE_PASS_CODECS, shipped):
            codec._one_pass_from = value


@pytest.fixture(params=[False, True], ids=["shipped", "forced"])
def forced(request):
    with numpy_pass(request.param):
        yield request.param


def _golden_streams(codec):
    """``(payload, values)`` of every golden stream the codec accepts."""
    accepted = []
    for _name, values in golden.streams(codec.max_value_bits):
        try:
            accepted.append((codec.encode(values), values))
        except CompressionError:
            continue  # a refusal, pinned by test_encode_golden
    return accepted


@pytest.mark.parametrize("name", ALL_CODECS)
def test_decode_blocks_equals_decode_on_golden_streams(name, forced):
    codec = get_codec(name)
    streams = _golden_streams(codec)
    for payload, values in streams:
        assert codec.decode_blocks([payload], [len(values)]).tolist() == \
            codec.decode(payload, len(values)) == values
    assert codec.decode_blocks(
        [payload for payload, _ in streams],
        [len(values) for _, values in streams],
    ).tolist() == [v for _, values in streams for v in values]


@st.composite
def codec_and_streams(draw):
    name = draw(st.sampled_from(ALL_CODECS))
    top = (1 << get_codec(name).max_value_bits) - 1
    value = st.integers(min_value=0, max_value=7) | st.integers(
        min_value=0, max_value=top)
    streams = draw(st.lists(st.lists(value, max_size=300),
                            min_size=1, max_size=6))
    return name, streams


@settings(max_examples=80, deadline=None)
@given(case=codec_and_streams(), views=st.booleans())
def test_decode_blocks_equals_decode_over_several_streams(case, views):
    name, streams = case
    codec = get_codec(name)
    payloads = [codec.encode(values) for values in streams]
    counts = [len(values) for values in streams]
    expected = [v for payload, count in zip(payloads, counts)
                for v in codec.decode(payload, count)]
    if views:  # the mmap storage path hands over memoryviews
        payloads = [memoryview(payload) for payload in payloads]
    for forced in (False, True):
        with numpy_pass(forced):
            out = codec.decode_blocks(payloads, counts)
        assert out.dtype == np.uint32
        assert out.tolist() == expected


def _corrupt(data: bytes, rng: random.Random) -> bytes:
    """Truncate, flip one bit, or append junk."""
    if not data:
        return bytes([rng.randrange(256)])
    mode = rng.randrange(3)
    if mode == 0:
        return data[:rng.randrange(len(data))]
    if mode == 1:
        position = rng.randrange(len(data))
        flipped = data[position] ^ (1 << rng.randrange(8))
        return data[:position] + bytes([flipped]) + data[position + 1:]
    return data + bytes(rng.randrange(256) for _ in range(rng.randrange(9)))


def _outcome(decode):
    try:
        return list(decode())
    except CompressionError:
        return "CompressionError"


@pytest.mark.parametrize("name", ALL_CODECS)
def test_decode_blocks_fails_exactly_where_decode_block_fails(name, forced):
    """Corrupt lists: the list decoder raises exactly when some
    payload's ``decode_block`` raises, and otherwise returns its values
    (wrong ones, possibly: there are no checksums at this layer)."""
    codec = get_codec(name)
    top = 1 << codec.max_value_bits
    rng = random.Random(f"list-corruption/{name}")
    failed = 0
    for _trial in range(150):
        payloads, counts = [], []
        for _stream in range(rng.randrange(1, 5)):
            count = rng.randrange(1, 130)
            values = [rng.randrange(top) if rng.random() < 0.1
                      else rng.randrange(8) for _ in range(count)]
            payload = codec.encode(values)
            if rng.random() < 0.4:
                payload = _corrupt(payload, rng)
            payloads.append(payload)
            counts.append(count + rng.choice((-1, 0, 0, 1)))
        expected = _outcome(lambda: [
            v for payload, count in zip(payloads, counts)
            for v in codec.decode_block(payload, count)])
        failed += expected == "CompressionError"
        assert _outcome(
            lambda: codec.decode_blocks(payloads, counts)) == expected
    assert failed  # the sweep did reach the error paths


@pytest.mark.parametrize("scheme", ALL_CODECS)
def test_decode_arrays_equals_decode_block_arrays(scheme, forced):
    index = build_random_index(num_docs=700, vocab_size=12, seed=5,
                               schemes=[scheme])
    lists = [index.posting_list(term) for term in index.terms]
    assert any(plist.num_blocks > 2 for plist in lists)
    for plist in lists:
        decoded = plist.decode_arrays()
        assert decoded == [plist.decode_block_arrays(i)
                           for i in range(plist.num_blocks)]
        for doc_ids, tfs in decoded:
            assert isinstance(doc_ids, array) and doc_ids.typecode == "I"
            assert isinstance(tfs, array) and tfs.typecode == "I"
