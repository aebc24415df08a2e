"""Unit tests for the hybrid per-list scheme selector."""

import random

import pytest

from repro.compression import HybridSelector, get_codec
from repro.compression.hybrid import PAPER_SCHEMES
from repro.errors import CompressionError


class TestHybridSelector:
    def test_default_schemes_match_paper(self):
        assert HybridSelector().schemes == PAPER_SCHEMES

    def test_unknown_scheme_rejected(self):
        with pytest.raises(CompressionError):
            HybridSelector(["BP", "nope"])

    def test_empty_scheme_set_rejected(self):
        with pytest.raises(CompressionError):
            HybridSelector([])

    def test_selection_is_minimal(self):
        rng = random.Random(11)
        values = [rng.randrange(0, 1 << 16) for _ in range(256)]
        selection = HybridSelector().select(values)
        for name, size in selection.sizes.items():
            assert selection.size <= size, name

    def test_selection_matches_direct_encoding(self):
        values = list(range(0, 1000, 3))
        selection = HybridSelector().select(values)
        codec = get_codec(selection.scheme)
        payload = codec.encode(values)
        assert codec.decode(payload, len(values)) == values
        assert len(payload) == selection.size

    def test_zero_run_stream_prefers_cheap_scheme(self):
        # An all-zero stream is where BP (1 byte per 128-value block via
        # width 0) or S8b zero-run modes shine; VB pays 1 byte per value.
        selection = HybridSelector().select([0] * 1024)
        vb_size = selection.sizes["VB"]
        assert selection.size < vb_size

    def test_wide_values_skip_s16(self):
        # Values above 2^28 are not encodable by S16; the selector must
        # quietly drop it rather than fail.
        values = [1 << 30] * 64
        selection = HybridSelector().select(values)
        assert "S16" not in selection.sizes
        assert selection.scheme in selection.sizes

    def test_hybrid_dominates_every_single_scheme(self):
        """Figure 3's core claim: hybrid >= the best single scheme."""
        rng = random.Random(23)
        streams = [
            [rng.randrange(0, 1 << 8) for _ in range(512)],
            [rng.randrange(0, 1 << 24) for _ in range(512)],
            [0] * 512,
            [rng.choice([0, 0, 0, 1 << 20]) for _ in range(512)],
        ]
        selector = HybridSelector()
        for stream in streams:
            selection = selector.select(stream)
            assert selection.size == min(selection.sizes.values())
