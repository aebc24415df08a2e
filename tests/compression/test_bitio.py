"""Unit tests for the LSB-first bit stream writer and reader."""

import pytest

from repro.compression.bitio import BitReader, pack_fields
from repro.errors import CompressionError


class TestBitWriter:
    """:func:`pack_fields`, the write side every packed codec uses."""

    def test_empty_stream_is_empty_bytes(self):
        assert pack_fields([], 7) == b""

    def test_single_byte_field(self):
        assert pack_fields([0xAB], 8) == b"\xab"

    def test_lsb_first_packing(self):
        # Field 0 (1) lands in bits 0-1, field 1 (3) in bits 2-3.
        assert pack_fields([1, 3], 2) == bytes([0b1101])

    def test_partial_byte_zero_padded(self):
        assert pack_fields([0b101], 3) == bytes([0b101])

    def test_field_spanning_byte_boundary(self):
        reader = BitReader(pack_fields([0x3F, 0x3FF], 10))
        assert reader.read(10) == 0x3F
        assert reader.read(10) == 0x3FF

    def test_zero_width_write_is_noop(self):
        assert pack_fields([0, 0, 0], 0) == b""

    def test_bit_length_tracks_writes(self):
        # 4 fields of 3 bits are 12 bits: two bytes, the last padded.
        assert len(pack_fields([1, 1, 1, 1], 3)) == 2


class TestBitReader:
    def test_roundtrip_mixed_widths(self):
        widths = [1, 7, 13, 32, 3, 5, 24]
        values = [(1 << w) - 1 for w in widths]
        frame, shift = 0, 0
        for v, w in zip(values, widths):
            frame |= v << shift
            shift += w
        reader = BitReader(frame.to_bytes((shift + 7) // 8, "little"))
        assert [reader.read(w) for w in widths] == values

    def test_read_past_end_raises(self):
        reader = BitReader(b"\x01")
        reader.read(8)
        with pytest.raises(CompressionError):
            reader.read(1)

    def test_read_many(self):
        reader = BitReader(pack_fields(list(range(16)), 4))
        assert reader.read_many(4, 16) == list(range(16))

    def test_offset_skips_header_bytes(self):
        data = b"\x00\x00" + pack_fields([0xCAFE], 16)
        reader = BitReader(data, offset=2)
        assert reader.read(16) == 0xCAFE

    def test_zero_width_read_returns_zero(self):
        reader = BitReader(b"")
        assert reader.read(0) == 0
