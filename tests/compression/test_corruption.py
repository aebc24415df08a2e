"""Failure injection: decoders must fail loudly or return integers.

Storage bit-flips and truncations happen; a decoder may return wrong
*values* for a corrupted payload (no checksums at this layer — that is
the storage stack's job), but it must never hang, crash the process
with an unrelated exception, or return something that is not a list of
non-negative integers. These fuzz tests pin that contract for every
codec and for the programmable decompression module.
"""

import random

import pytest

from repro.compression import get_codec, list_codecs
from repro.decompressor import DecompressionModule, program_for_scheme
from repro.errors import CompressionError, DecompressorProgramError
from tests.conftest import reseat

ALL_SCHEMES = sorted(list_codecs())
MODULE_SCHEMES = ("BP", "VB", "PFD", "OptPFD", "S16", "S8b", "GVB")


def _corrupt(data: bytes, rng: random.Random) -> bytes:
    """One random corruption: truncate, bit-flip, or extend."""
    if not data:
        return bytes([rng.randrange(256)])
    mode = rng.randrange(3)
    if mode == 0:
        return data[: rng.randrange(len(data))]
    if mode == 1:
        position = rng.randrange(len(data))
        flipped = data[position] ^ (1 << rng.randrange(8))
        return data[:position] + bytes([flipped]) + data[position + 1:]
    return data + bytes(rng.randrange(256)
                        for _ in range(rng.randrange(1, 5)))


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_codecs_survive_corruption(scheme):
    codec = get_codec(scheme)
    rng = random.Random(hash(scheme) & 0xFFFF)
    values = [rng.randrange(0, 1 << 20) for _ in range(200)]
    clean = codec.encode(values)
    for _trial in range(60):
        dirty = _corrupt(clean, rng)
        try:
            decoded = codec.decode(dirty, len(values))
        except CompressionError:
            continue  # loud failure is the preferred outcome
        assert isinstance(decoded, list)
        assert len(decoded) == len(values)
        assert all(isinstance(v, int) and v >= 0 for v in decoded)


@pytest.mark.parametrize("scheme", MODULE_SCHEMES)
def test_decompression_module_survives_corruption(scheme):
    codec = get_codec(scheme)
    module = DecompressionModule(program_for_scheme(scheme))
    rng = random.Random(hash(scheme) & 0xFFF)
    values = [rng.randrange(0, 1 << 16) for _ in range(150)]
    clean = codec.encode(values)
    for _trial in range(40):
        dirty = _corrupt(clean, rng)
        try:
            decoded = module.decode(dirty, len(values))
        except (CompressionError, DecompressorProgramError):
            continue
        assert isinstance(decoded, list)
        assert len(decoded) == len(values)
        assert all(isinstance(v, int) and v >= 0 for v in decoded)


def test_block_decode_corruption_is_contained(small_index):
    """A corrupted block payload surfaces as a library error, never as
    an arbitrary exception from deep inside the codec."""
    term = small_index.terms[0]
    posting_list = small_index.posting_list(term)
    block = posting_list.blocks[0]
    rng = random.Random(3)
    from repro.index.blocks import Block

    for _trial in range(30):
        dirty = Block(
            metadata=block.metadata,
            doc_payload=_corrupt(block.doc_payload, rng),
            tf_payload=block.tf_payload,
        )
        try:
            postings = dirty.decode(posting_list.codec)
        except CompressionError:
            continue
        assert len(postings) == block.metadata.count


#: The codecs that can store a tf - 1 of 2**32 - 1 (S16 stops at 28 bits).
WIDE_SCHEMES = [name for name in ALL_SCHEMES
                if get_codec(name).max_value_bits == 32]


def _two_block_list(scheme):
    """A fresh one-term index of two blocks: docIDs 0-199, tf 1."""
    from repro.index import IndexBuilder

    builder = IndexBuilder(schemes=[scheme])
    builder.declare_documents([10] * 200)
    builder.add_postings("w", range(200), [1] * 200)
    return builder.build().posting_list("w")


@pytest.mark.parametrize("scheme", WIDE_SCHEMES)
def test_stored_tf_past_32_bits_raises_compression_error(scheme):
    """A hostile ``.bossx`` can store tf - 1 = 2**32 - 1, whose tf no
    32-bit slot holds: the oracle, the block decoder and the list
    decoder all raise :class:`CompressionError` (not ``OverflowError``,
    and the oracle no longer returns tf = 2**32)."""
    from repro.index.blocks import Block
    from tests.compression.test_list_decode import numpy_pass

    plist = _two_block_list(scheme)
    codec = plist.codec
    good = plist.blocks[1]
    hostile = [0] * good.metadata.count
    hostile[3] = 0xFFFFFFFF
    bad = Block(metadata=good.metadata, doc_payload=good.doc_payload,
                tf_payload=codec.encode(hostile))
    reseat(plist, [plist.blocks[0], bad])
    with pytest.raises(CompressionError):
        bad.decode(codec)
    with pytest.raises(CompressionError):
        bad.decode_arrays(codec)
    for forced in (False, True):
        with numpy_pass(forced), pytest.raises(CompressionError):
            plist.decode_arrays()


@pytest.mark.parametrize("scheme", WIDE_SCHEMES)
def test_docid_past_32_bits_raises_compression_error(scheme):
    """D-gaps that carry a docID past 2**32 - 1 raise on all three
    paths over one corrupted block: the oracle (``Block.decode`` and
    ``decode_block``), the block decoder and the list decoder, which
    checks in 64 bits before narrowing, where ``astype(uint32)`` would
    wrap silently."""
    from dataclasses import replace

    from repro.index.blocks import Block
    from tests.compression.test_list_decode import numpy_pass

    plist = _two_block_list(scheme)
    good = plist.blocks[1]
    first = 0xFFFFFFFF - 10
    bad = Block(
        metadata=replace(good.metadata, first_doc_id=first,
                         last_doc_id=first),
        doc_payload=good.doc_payload, tf_payload=good.tf_payload,
    )
    reseat(plist, [plist.blocks[0], bad])
    with pytest.raises(CompressionError):
        bad.decode(plist.codec)
    with pytest.raises(CompressionError):
        plist.decode_block(1)
    with pytest.raises(CompressionError):
        bad.decode_arrays(plist.codec)
    with pytest.raises(CompressionError):
        plist.decode_block_arrays(1)
    for forced in (False, True):
        with numpy_pass(forced), pytest.raises(CompressionError):
            plist.decode_arrays()
