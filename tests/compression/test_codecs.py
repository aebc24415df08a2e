"""Unit tests for the five paper codecs (plus PFD) against known vectors."""

import pytest

from repro.compression import get_codec, list_codecs
from repro.compression.pfordelta import PFDCodec
from repro.compression.simple8b import S8B_MODES
from repro.compression.simple16 import S16_MODES
from repro.errors import CompressionError

ALL_CODECS = sorted(list_codecs())


@pytest.fixture(params=ALL_CODECS)
def codec(request):
    return get_codec(request.param)


class TestRegistry:
    def test_paper_schemes_registered(self):
        for name in ("BP", "VB", "PFD", "OptPFD", "S16", "S8b"):
            assert name in ALL_CODECS

    def test_unknown_codec_raises(self):
        with pytest.raises(CompressionError):
            get_codec("LZ4")


class TestCommonBehavior:
    """Behavior every codec must share."""

    def test_roundtrip_small(self, codec):
        values = [0, 1, 2, 127, 128, 255, 256, 1000, 65535]
        assert codec.decode(codec.encode(values), len(values)) == values

    def test_roundtrip_empty(self, codec):
        assert codec.decode(codec.encode([]), 0) == []

    def test_roundtrip_all_zeros(self, codec):
        values = [0] * 300
        assert codec.decode(codec.encode(values), len(values)) == values

    def test_roundtrip_single_value(self, codec):
        assert codec.decode(codec.encode([42]), 1) == [42]

    def test_roundtrip_max_value(self, codec):
        top = (1 << codec.max_value_bits) - 1
        values = [top, 0, top]
        assert codec.decode(codec.encode(values), len(values)) == values

    def test_negative_value_rejected(self, codec):
        with pytest.raises(CompressionError):
            codec.encode([1, -1, 2])

    def test_too_wide_value_rejected(self, codec):
        with pytest.raises(CompressionError):
            codec.encode([1 << codec.max_value_bits])

    def test_roundtrip_block_of_128(self, codec):
        # The paper's block granularity.
        values = [(i * 37) % 1024 for i in range(128)]
        assert codec.decode(codec.encode(values), len(values)) == values

    def test_truncated_stream_raises(self, codec):
        values = list(range(64))
        data = codec.encode(values)
        with pytest.raises(CompressionError):
            codec.decode(data[: max(0, len(data) // 4)], len(values))


class TestBitPacking:
    def test_width_header(self):
        codec = get_codec("BP")
        data = codec.encode([7, 5, 3])  # max needs 3 bits
        assert data[0] == 3
        assert len(data) == 1 + (3 * 3 + 7) // 8  # header + 9 bits

    def test_all_zero_block_costs_one_byte(self):
        codec = get_codec("BP")
        assert len(codec.encode([0] * 128)) == 1

    def test_invalid_width_rejected_on_decode(self):
        codec = get_codec("BP")
        with pytest.raises(CompressionError):
            codec.decode(bytes([40, 0, 0]), 1)

    def test_empty_payload_rejected(self):
        with pytest.raises(CompressionError):
            get_codec("BP").decode(b"", 1)


class TestVarByte:
    def test_one_byte_per_small_value(self):
        codec = get_codec("VB")
        assert codec.encode([0]) == b"\x80"
        assert codec.encode([127]) == b"\xff"

    def test_two_byte_value_layout(self):
        # 128 = 0b1_0000000 -> group(msb)=1 no flag, group(lsb)=0 with flag.
        codec = get_codec("VB")
        assert codec.encode([128]) == bytes([0x01, 0x80])

    def test_byte_cost_grows_every_seven_bits(self):
        codec = get_codec("VB")
        assert len(codec.encode([(1 << 7) - 1])) == 1
        assert len(codec.encode([1 << 7])) == 2
        assert len(codec.encode([1 << 14])) == 3
        assert len(codec.encode([1 << 21])) == 4
        assert len(codec.encode([1 << 28])) == 5


class TestPForDelta:
    def test_exception_patched(self):
        codec = get_codec("PFD")
        # 90% small values, one huge outlier -> narrow frame + 1 exception.
        values = [3] * 127 + [1 << 20]
        data = codec.encode(values)
        assert codec.decode(data, 128) == values
        assert data[0] == 2  # frame width from the 2-bit majority
        assert data[1] == 1  # one exception

    def test_coverage_rule_width(self):
        # With 10 values where 9 fit 2 bits, the 90% rule gives width 2.
        values = [3] * 9 + [1000]
        assert PFDCodec().encode(values)[0] == 2
        # The rule reads the segment's bit-length histogram: nine 2-bit
        # values and one 10-bit value.
        histogram = [0, 0, 9] + [0] * 7 + [1]
        assert PFDCodec()._choose_frame(histogram) == (
            2, len(PFDCodec().encode(values)))

    def test_multi_segment_stream(self):
        codec = get_codec("PFD")
        values = [i % 7 for i in range(128 * 3 + 10)]
        assert codec.decode(codec.encode(values), len(values)) == values

    def test_optpfd_never_larger_than_pfd(self):
        pfd, opt = get_codec("PFD"), get_codec("OptPFD")
        import random

        rng = random.Random(7)
        for _ in range(20):
            values = [rng.randrange(0, 1 << rng.randrange(1, 24))
                      for _ in range(128)]
            assert len(opt.encode(values)) <= len(pfd.encode(values))


class TestSimple16:
    def test_mode_table_sums_to_28(self):
        assert all(sum(mode) == 28 for mode in S16_MODES)
        assert len(S16_MODES) == 16

    def test_dense_ones_pack_28_per_word(self):
        codec = get_codec("S16")
        values = [1] * 28
        assert len(codec.encode(values)) == 4

    def test_word_alignment_enforced(self):
        with pytest.raises(CompressionError):
            get_codec("S16").decode(b"\x00\x00\x00", 1)

    def test_28_bit_ceiling(self):
        codec = get_codec("S16")
        top = (1 << 28) - 1
        assert codec.decode(codec.encode([top]), 1) == [top]
        with pytest.raises(CompressionError):
            codec.encode([1 << 28])


class TestSimple8b:
    def test_mode_table_shape(self):
        assert len(S8B_MODES) == 16
        for width, capacity in S8B_MODES[2:]:
            assert width * capacity <= 60

    def test_zero_run_mode_density(self):
        codec = get_codec("S8b")
        # 240 zeros fit a single 8-byte word via selector 0.
        assert len(codec.encode([0] * 240)) == 8

    def test_mixed_zero_runs_and_values(self):
        codec = get_codec("S8b")
        values = [0] * 240 + [5, 6, 7] + [0] * 120 + [9]
        assert codec.decode(codec.encode(values), len(values)) == values

    def test_word_alignment_enforced(self):
        with pytest.raises(CompressionError):
            get_codec("S8b").decode(b"\x00" * 7, 1)

    def test_sixty_ones_pack_one_word(self):
        codec = get_codec("S8b")
        assert len(codec.encode([1] * 60)) == 8
