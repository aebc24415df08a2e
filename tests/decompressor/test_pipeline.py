"""Pipeline tests: bit-exact parity with every software codec."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import deltas_from_doc_ids, get_codec
from repro.decompressor import (
    BUILTIN_PROGRAMS,
    DecompressionModule,
    program_for_scheme,
    parse_program,
)
from repro.errors import DecompressorProgramError

SCHEMES = ("BP", "VB", "PFD", "OptPFD", "S16", "S8b")


class TestBuiltinPrograms:
    def test_all_paper_schemes_have_programs(self):
        for scheme in SCHEMES:
            assert scheme in BUILTIN_PROGRAMS

    def test_unknown_scheme_rejected(self):
        with pytest.raises(DecompressorProgramError):
            program_for_scheme("GZIP")


class TestParity:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_matches_software_codec(self, scheme):
        codec = get_codec(scheme)
        module = DecompressionModule(program_for_scheme(scheme))
        rng = random.Random(31)
        for _ in range(15):
            count = rng.randrange(0, 300)
            values = [rng.randrange(0, 1 << 24) for _ in range(count)]
            payload = codec.encode(values)
            assert module.decode(payload, count) == values

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_all_zero_stream(self, scheme):
        codec = get_codec(scheme)
        module = DecompressionModule(program_for_scheme(scheme))
        values = [0] * 200
        assert module.decode(codec.encode(values), 200) == values

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_block_of_128(self, scheme):
        codec = get_codec(scheme)
        module = DecompressionModule(program_for_scheme(scheme))
        values = [(i * 13) % 512 for i in range(128)]
        assert module.decode(codec.encode(values), 128) == values

    def test_pfd_exceptions_patched(self):
        codec = get_codec("PFD")
        module = DecompressionModule(program_for_scheme("PFD"))
        values = [2] * 120 + [1 << 22] * 8  # forces a patch section
        assert module.decode(codec.encode(values), 128) == values


class TestDeltaStage:
    def test_delta_reconstruction(self):
        """A use_delta program returns docIDs, not gaps."""
        doc_ids = [5, 9, 10, 40, 41, 300]
        gaps = deltas_from_doc_ids(doc_ids)
        codec = get_codec("VB")
        payload = codec.encode(gaps)
        text = """
# Stage 1
extractor.mode = byte
# Stage 2
reg Reg = 0
wire1 := AND(Input, 0x7F)
wire2 := SHL(Reg, 0x7)
wire3 := ADD(wire1, wire2)
Reg := wire3
Output := wire3
Output.valid := SHR(Input, 0x7)
reset := SHR(Input, 0x7)
# Stage 3
exceptions = none
# Stage 4
use_delta = 1
"""
        module = DecompressionModule(parse_program(text, name="VB-delta"))
        assert module.decode(payload, len(doc_ids)) == doc_ids


class TestErrors:
    def test_short_stream_rejected(self):
        module = DecompressionModule(program_for_scheme("VB"))
        with pytest.raises(DecompressorProgramError):
            module.decode(b"", 5)

    def test_unknown_identifier_rejected(self):
        program = parse_program("""
# Stage 1
extractor.mode = byte
# Stage 2
Output := ADD(Input, mystery)
# Stage 3
exceptions = none
# Stage 4
use_delta = 0
""")
        module = DecompressionModule(program)
        with pytest.raises(DecompressorProgramError):
            module.decode(b"\x01", 1)

    def test_unpack_without_table_rejected(self):
        program = parse_program("""
# Stage 1
extractor.mode = word32
# Stage 2
selector_bits = 4
Output := UNPACK(Input)
# Stage 3
exceptions = none
# Stage 4
use_delta = 0
""")
        module = DecompressionModule(program)
        with pytest.raises(DecompressorProgramError):
            module.decode(b"\x00\x00\x00\x00", 1)


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(st.integers(min_value=0, max_value=(1 << 27) - 1),
                    max_size=200),
    scheme=st.sampled_from(SCHEMES),
)
def test_property_module_equals_codec(values, scheme):
    """The programmable pipeline is bit-exact vs the software decoder."""
    codec = get_codec(scheme)
    module = DecompressionModule(program_for_scheme(scheme))
    payload = codec.encode(values)
    assert module.decode(payload, len(values)) == codec.decode(
        payload, len(values)
    )
