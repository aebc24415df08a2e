"""Unit tests for index construction."""

import pytest

from repro.errors import InvertedIndexError
from repro.index import IndexBuilder
from repro.index.blocks import BLOCK_SIZE


class TestDocumentPath:
    def test_basic_build(self):
        builder = IndexBuilder()
        builder.add_document(["a", "b", "a"])
        builder.add_document(["b", "c"])
        index = builder.build()
        assert index.stats.num_docs == 2
        assert index.terms == ["a", "b", "c"]
        a = index.posting_list("a")
        assert a.document_frequency == 1
        assert a.decode_all()[0].tf == 2
        b = index.posting_list("b")
        assert [p.doc_id for p in b.decode_all()] == [0, 1]

    def test_doc_ids_sequential(self):
        builder = IndexBuilder()
        assert builder.add_document(["x"]) == 0
        assert builder.add_document(["y"]) == 1

    def test_empty_document_rejected(self):
        with pytest.raises(InvertedIndexError):
            IndexBuilder().add_document([])

    def test_build_without_documents_rejected(self):
        with pytest.raises(InvertedIndexError):
            IndexBuilder().build()

    def test_builder_single_use(self):
        builder = IndexBuilder()
        builder.add_document(["a"])
        builder.build()
        with pytest.raises(InvertedIndexError):
            builder.build()
        with pytest.raises(InvertedIndexError):
            builder.add_document(["b"])

    def test_stats(self):
        builder = IndexBuilder()
        builder.add_document(["a"] * 10)
        builder.add_document(["b"] * 30)
        index = builder.build()
        assert index.stats.avgdl == 20.0
        assert index.stats.total_tokens == 40


class TestPostingPath:
    def test_add_postings(self):
        builder = IndexBuilder()
        builder.declare_documents([10] * 100)
        builder.add_postings("w", [0, 50, 99], [1, 3, 2])
        index = builder.build()
        postings = index.posting_list("w").decode_all()
        assert [(p.doc_id, p.tf) for p in postings] == [(0, 1), (50, 3), (99, 2)]

    def test_duplicate_term_rejected(self):
        builder = IndexBuilder()
        builder.declare_documents([10] * 10)
        builder.add_postings("w", [0], [1])
        with pytest.raises(InvertedIndexError):
            builder.add_postings("w", [1], [1])

    def test_doc_id_beyond_corpus_rejected(self):
        builder = IndexBuilder()
        builder.declare_documents([10] * 5)
        builder.add_postings("w", [7], [1])
        with pytest.raises(InvertedIndexError):
            builder.build()

    def test_double_declare_rejected(self):
        builder = IndexBuilder()
        builder.declare_documents([10])
        with pytest.raises(InvertedIndexError):
            builder.declare_documents([10])


class TestCompression:
    def test_hybrid_selects_per_list(self):
        builder = IndexBuilder()
        builder.declare_documents([10] * 100_000)
        # Ultra-dense list (consecutive docIDs, gaps of 0).
        builder.add_postings("dense", range(5000), [1] * 5000)
        # Sparse list with huge gaps.
        builder.add_postings("sparse", range(13, 800 * 97, 97), [1] * 800)
        index = builder.build()
        # Both decode correctly whatever was chosen.
        assert len(index.posting_list("dense").decode_all()) == 5000
        assert len(index.posting_list("sparse").decode_all()) == 800
        # The chosen schemes come from the paper set.
        assert index.posting_list("dense").scheme in (
            "BP", "VB", "OptPFD", "S16", "S8b"
        )

    def test_pinned_scheme(self):
        builder = IndexBuilder(schemes=["VB"])
        builder.declare_documents([10] * 100)
        builder.add_postings("w", range(50), [1] * 50)
        index = builder.build()
        assert index.posting_list("w").scheme == "VB"

    def test_blocks_partitioned_at_128(self):
        builder = IndexBuilder(schemes=["BP"])
        builder.declare_documents([10] * 1000)
        builder.add_postings("w", range(300), [1] * 300)
        builder.add_postings("exact", range(256), [1] * 256)
        index = builder.build()
        pl = index.posting_list("w")
        assert pl.num_blocks == 3
        assert [b.metadata.count for b in pl.blocks] == [128, 128, 44]
        assert [b.metadata.count
                for b in index.posting_list("exact").blocks] == [128, 128]

    def test_block_max_scores_bound_postings(self):
        builder = IndexBuilder()
        builder.declare_documents([10] * 2000)
        builder.add_postings("w", range(500),
                             [(d % 9) + 1 for d in range(500)])
        index = builder.build()
        pl = index.posting_list("w")
        scorer = index.scorer
        for i, block in enumerate(pl.blocks):
            postings = pl.decode_block(i)
            for p in postings:
                score = scorer.term_score(pl.idf, p.tf, p.doc_id)
                assert score <= block.metadata.max_term_score + 1e-12

    def test_list_max_is_max_of_blocks(self):
        builder = IndexBuilder()
        builder.declare_documents([10] * 2000)
        builder.add_postings("w", range(500),
                             [(d % 9) + 1 for d in range(500)])
        index = builder.build()
        pl = index.posting_list("w")
        assert pl.max_term_score == pytest.approx(
            max(b.metadata.max_term_score for b in pl.blocks)
        )


class TestLayout:
    def test_regions_disjoint(self):
        builder = IndexBuilder()
        builder.declare_documents([10] * 1000)
        builder.add_postings("a", range(400), [1] * 400)
        builder.add_postings("b", range(300), [1] * 300)
        index = builder.build()
        ra = index.posting_list("a").region
        rb = index.posting_list("b").region
        assert ra.end <= rb.base or rb.end <= ra.base

    def test_block_addresses_within_region(self):
        builder = IndexBuilder()
        builder.declare_documents([10] * 1000)
        builder.add_postings("a", range(400), [1] * 400)
        index = builder.build()
        pl = index.posting_list("a")
        for i in range(pl.num_blocks):
            address = pl.region.base + pl.blocks[i].metadata.offset
            assert pl.region.base <= address < pl.region.end or pl.region.size == 0

    def test_missing_term_raises(self):
        builder = IndexBuilder()
        builder.add_document(["a"])
        index = builder.build()
        with pytest.raises(InvertedIndexError):
            index.posting_list("zzz")
        assert "a" in index
        assert "zzz" not in index
