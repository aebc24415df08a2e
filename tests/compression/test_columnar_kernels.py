"""``Codec.decode_block_columnar``: the base-class adapter.

No codec overrides it any more (the numpy kernels are retired); what
is left is one adapter over ``decode_block`` that the benchmark's codec
probes call by name. It must stay *element-identical* to the per-value
``decode`` oracle on any stream a codec accepts, take zero-copy
``memoryview`` inputs, return a ``uint32`` vector, and raise exactly
what ``decode_block`` raises on truncated payloads.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import get_codec, list_codecs
from repro.errors import CompressionError

ALL_CODECS = sorted(list_codecs())


def _max_value(name):
    return (1 << get_codec(name).max_value_bits) - 1


@st.composite
def codec_and_stream(draw, max_size=300):
    name = draw(st.sampled_from(ALL_CODECS))
    values = draw(st.lists(
        st.integers(min_value=0, max_value=_max_value(name)),
        max_size=max_size,
    ))
    return name, values


@settings(max_examples=80, deadline=None)
@given(case=codec_and_stream())
def test_columnar_matches_oracle(case):
    name, values = case
    codec = get_codec(name)
    data = codec.encode(values)
    out = codec.decode_block_columnar(data, len(values))
    assert isinstance(out, np.ndarray)
    assert out.dtype == np.uint32
    assert out.tolist() == codec.decode(data, len(values))


@settings(max_examples=40, deadline=None)
@given(case=codec_and_stream())
def test_columnar_accepts_memoryview(case):
    """Zero-copy inputs (the mmap storage path) decode identically."""
    name, values = case
    codec = get_codec(name)
    data = codec.encode(values)
    from_bytes = codec.decode_block_columnar(data, len(values))
    from_view = codec.decode_block_columnar(memoryview(data), len(values))
    assert from_view.tolist() == from_bytes.tolist()


@settings(max_examples=40, deadline=None)
@given(case=codec_and_stream(), data=st.data())
def test_columnar_prefix_counts_match_oracle(case, data):
    """Decoding fewer values than encoded agrees with ``decode_block``.

    Both paths honor the metadata element count: the kernel must stop
    at exactly ``count`` values even when the payload holds more (the
    final block of a list is usually short). The truncation oracle is
    ``decode_block`` — the engine-facing contract — because the
    per-value ``decode`` only checks the count between values and so
    over-returns whole words for ``count=0`` on word-packed codecs.
    """
    name, values = case
    if not values:
        return
    codec = get_codec(name)
    if name in ("PFD", "OptPFD"):
        # Frame geometry depends on the total count: prefix decoding is
        # undefined for patched frames, exactly as for decode_block.
        return
    payload = codec.encode(values)
    count = data.draw(st.integers(min_value=0, max_value=len(values)))
    assert codec.decode_block_columnar(payload, count).tolist() == \
        list(codec.decode_block(payload, count))
    if count:
        assert codec.decode_block_columnar(payload, count).tolist() == \
            codec.decode(payload, count)


@settings(max_examples=60, deadline=None)
@given(case=codec_and_stream(), cut=st.integers(min_value=1, max_value=64))
def test_truncation_errors_match_decode_block(case, cut):
    """Corrupt (truncated) payloads raise identical errors on both paths."""
    name, values = case
    if len(values) < 2:
        return
    codec = get_codec(name)
    payload = codec.encode(values)
    truncated = payload[:max(0, len(payload) - cut)]

    def outcome(decoder):
        try:
            result = decoder(truncated, len(values))
        except CompressionError as error:
            return ("error", str(error))
        return ("ok", list(result))

    assert outcome(codec.decode_block_columnar) == \
        outcome(codec.decode_block), (name, len(values), cut)


@pytest.mark.parametrize("name", ALL_CODECS)
@pytest.mark.parametrize("count", [1, 2, 127, 128, 129, 255, 256])
def test_block_boundary_counts(name, count):
    """Counts straddling the 128-posting block size, with edge values."""
    codec = get_codec(name)
    top = _max_value(name)
    # Alternating extremes stress the width/selector transitions.
    values = [top if i % 3 == 0 else i % 7 for i in range(count)]
    data = codec.encode(values)
    assert codec.decode_block_columnar(data, count).tolist() == values
    assert codec.decode_block_columnar(
        memoryview(data), count).tolist() == values


@pytest.mark.parametrize("name", ALL_CODECS)
def test_max_width_values(name):
    """All-maximal streams exercise the widest bit-width configuration."""
    codec = get_codec(name)
    values = [_max_value(name)] * 130
    data = codec.encode(values)
    assert codec.decode_block_columnar(data, 130).tolist() == values


@pytest.mark.parametrize("name", ["PFD", "OptPFD"])
@pytest.mark.parametrize("exception_rate", [0.05, 0.3, 0.9])
def test_pfd_exception_heavy(name, exception_rate):
    """PFD exception patching: from a few outliers to mostly outliers."""
    import random

    rng = random.Random(f"{name}:{exception_rate}")
    codec = get_codec(name)
    values = [
        (1 << 31) + rng.randrange(1 << 20)
        if rng.random() < exception_rate else rng.randrange(16)
        for _ in range(256)
    ]
    data = codec.encode(values)
    assert codec.decode_block_columnar(data, 256).tolist() == \
        codec.decode(data, 256)


@pytest.mark.parametrize("name", ALL_CODECS)
def test_empty_stream(name):
    codec = get_codec(name)
    out = codec.decode_block_columnar(codec.encode([]), 0)
    assert isinstance(out, np.ndarray)
    assert len(out) == 0
