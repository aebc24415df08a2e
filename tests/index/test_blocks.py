"""Unit tests for block structure and the 19-byte metadata."""

import pytest

from repro.compression import get_codec
from repro.errors import InvertedIndexError
from repro.index.blocks import (
    BLOCK_METADATA_BYTES,
    BLOCK_SIZE,
    BlockMetadata,
    build_block,
    build_block_columns,
)
from repro.index.postings import Posting


def _postings(doc_ids, tf=1):
    return [Posting(d, tf) for d in doc_ids]


class TestBlockMetadata:
    def test_paper_constants(self):
        assert BLOCK_SIZE == 128
        assert BLOCK_METADATA_BYTES == 19

    def test_valid_construction(self):
        meta = BlockMetadata(first_doc_id=10, last_doc_id=200,
                             max_term_score=1.5, offset=0, count=64,
                             bit_width=7, exception_offset=0)
        assert (meta.first_doc_id, meta.last_doc_id, meta.count) == (
            10, 200, 64)

    def test_invalid_count(self):
        with pytest.raises(InvertedIndexError):
            BlockMetadata(0, 1, 1.0, 0, 0, 1, 0)
        with pytest.raises(InvertedIndexError):
            BlockMetadata(0, 1, 1.0, 0, 129, 1, 0)

    def test_inverted_range_rejected(self):
        with pytest.raises(InvertedIndexError):
            BlockMetadata(10, 5, 1.0, 0, 2, 1, 0)

    def test_bit_width_field_limit(self):
        """Encoded bit width is a 5-bit field."""
        with pytest.raises(InvertedIndexError):
            BlockMetadata(0, 1, 1.0, 0, 2, 32, 0)

    def test_exception_offset_field_limit(self):
        """Exception offset is a 12-bit field."""
        with pytest.raises(InvertedIndexError):
            BlockMetadata(0, 1, 1.0, 0, 2, 1, 1 << 12)


class TestBuildBlock:
    def test_roundtrip(self):
        codec = get_codec("VB")
        postings = [Posting(d, (d % 5) + 1) for d in range(0, 256, 2)]
        block = build_block(postings, codec, max_term_score=2.0, offset=64)
        assert block.metadata.first_doc_id == 0
        assert block.metadata.last_doc_id == 254
        assert block.metadata.count == 128
        assert block.metadata.offset == 64
        assert block.decode(codec) == postings

    def test_empty_rejected(self):
        with pytest.raises(InvertedIndexError):
            build_block([], get_codec("BP"), 1.0, 0)

    def test_oversized_rejected(self):
        postings = _postings(range(BLOCK_SIZE + 1))
        with pytest.raises(InvertedIndexError):
            build_block(postings, get_codec("BP"), 1.0, 0)

    def test_single_posting_block(self):
        codec = get_codec("BP")
        block = build_block([Posting(42, 7)], codec, 1.0, 0)
        assert block.decode(codec) == [Posting(42, 7)]
        assert block.metadata.first_doc_id == block.metadata.last_doc_id == 42

    def test_compressed_bytes_counts_both_payloads(self):
        codec = get_codec("BP")
        block = build_block(_postings(range(100)), codec, 1.0, 0)
        assert block.compressed_bytes == (
            len(block.doc_payload) + len(block.tf_payload)
        )

    @pytest.mark.parametrize("scheme", ["BP", "VB", "PFD", "OptPFD", "S16", "S8b"])
    def test_roundtrip_every_scheme(self, scheme):
        codec = get_codec(scheme)
        postings = [Posting(d * 3 + 1, (d % 7) + 1) for d in range(128)]
        block = build_block(postings, codec, 1.0, 0)
        assert block.decode(codec) == postings


class TestBuildBlockColumns:
    """The production entry point: the builder hands it column slices."""

    @pytest.mark.parametrize("scheme",
                             ["BP", "VB", "PFD", "OptPFD", "S16", "S8b",
                              "GVB"])
    def test_roundtrips_through_both_decoders(self, scheme):
        codec = get_codec(scheme)
        doc_ids = [7 + d * d for d in range(128)]
        tfs = [(d % 9) + 1 for d in range(128)]
        block = build_block_columns(doc_ids, tfs, codec, 1.5, 32)
        assert block.decode(codec) == [
            Posting(d, tf) for d, tf in zip(doc_ids, tfs)]
        decoded_ids, decoded_tfs = block.decode_arrays(codec)
        assert list(decoded_ids) == doc_ids
        assert list(decoded_tfs) == tfs
        meta = block.metadata
        assert (meta.first_doc_id, meta.last_doc_id) == (7, 7 + 127 * 127)
        assert (meta.count, meta.offset, meta.max_term_score) == (
            128, 32, 1.5)
        # The widest d-gap (127**2 - 126**2 - 1 = 252) is 8 bits.
        assert meta.bit_width == 8

    def test_posting_adapter_builds_the_same_block(self):
        codec = get_codec("S16")
        postings = [Posting(d * 5, (d % 3) + 1) for d in range(100)]
        assert build_block(postings, codec, 2.0, 0) == build_block_columns(
            [p.doc_id for p in postings], [p.tf for p in postings],
            codec, 2.0, 0)

    def test_empty_and_oversized_rejected(self):
        codec = get_codec("BP")
        with pytest.raises(InvertedIndexError):
            build_block_columns([], [], codec, 1.0, 0)
        ids = list(range(BLOCK_SIZE + 1))
        with pytest.raises(InvertedIndexError):
            build_block_columns(ids, [1] * len(ids), codec, 1.0, 0)
