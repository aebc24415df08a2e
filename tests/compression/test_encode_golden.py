"""Byte identity of the write side against the committed digests.

``tests/golden/write_side.json`` was generated at the commit before the
width-pass encoders (see :mod:`tests.write_side_golden`): every payload,
every refusal and every index file built here must match it.
"""

import numpy as np
import pytest

from repro.compression.base import get_codec, list_codecs

from tests import write_side_golden as golden

GOLDEN = golden.load()


@pytest.mark.parametrize("name", list_codecs())
def test_every_stream_encodes_to_the_pinned_bytes(name):
    codec = get_codec(name)
    expected = GOLDEN["encode"][name]
    outcomes = {
        stream: golden.encode_outcome(codec, values)
        for stream, values in golden.streams(codec.max_value_bits)
    }
    assert set(outcomes) == set(expected)
    wrong = {stream: (outcome, expected[stream])
             for stream, outcome in outcomes.items()
             if outcome != expected[stream]}
    assert not wrong


@pytest.mark.parametrize("preset", golden.PRESETS)
def test_preset_bossx_is_byte_identical(preset, tmp_path):
    pinned = GOLDEN["bossx"]
    if np.__version__ != pinned["numpy"]:
        pytest.skip(f"preset corpora were drawn with numpy "
                    f"{pinned['numpy']}; this is {np.__version__}")
    assert golden.bossx_digest(preset, tmp_path) == pinned["sha256"][preset]


def test_cli_build_is_byte_identical(tmp_path):
    """``repro-boss build`` of the seeded corpus writes the pinned bytes."""
    assert golden.cli_build_digest(tmp_path) == GOLDEN["cli_build"]
