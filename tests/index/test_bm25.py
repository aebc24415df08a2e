"""Unit tests for BM25 scoring and the paper's pre-computation split."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError, InvertedIndexError
from repro.index.blocks import BLOCK_SIZE
from repro.index.bm25 import BM25Parameters, BM25Scorer
from repro.index.builder import IndexBuilder


class TestParameters:
    def test_defaults(self):
        params = BM25Parameters()
        assert params.k1 == 1.2
        assert params.b == 0.75

    def test_invalid_rejected(self):
        with pytest.raises(ConfigurationError):
            BM25Parameters(k1=-1.0)
        with pytest.raises(ConfigurationError):
            BM25Parameters(b=1.5)


class TestScorer:
    def test_empty_corpus_rejected(self):
        with pytest.raises(ConfigurationError):
            BM25Scorer([])

    def test_zero_length_doc_rejected(self):
        with pytest.raises(ConfigurationError):
            BM25Scorer([10, 0, 5])

    def test_avgdl(self):
        scorer = BM25Scorer([10, 20, 30])
        assert scorer.avgdl == 20.0
        assert scorer.num_docs == 3

    def test_idf_formula(self):
        scorer = BM25Scorer([10] * 100)
        df = 7
        expected = math.log((100 - 7 + 0.5) / (7 + 0.5) + 1.0)
        assert scorer.idf(df) == pytest.approx(expected)

    def test_idf_always_positive(self):
        scorer = BM25Scorer([10] * 10)
        for df in range(0, 11):
            assert scorer.idf(df) > 0.0

    def test_idf_decreases_with_df(self):
        scorer = BM25Scorer([10] * 100)
        idfs = [scorer.idf(df) for df in range(1, 100)]
        assert idfs == sorted(idfs, reverse=True)

    def test_idf_out_of_range(self):
        scorer = BM25Scorer([10] * 5)
        with pytest.raises(ConfigurationError):
            scorer.idf(6)
        with pytest.raises(ConfigurationError):
            scorer.idf(-1)

    def test_precomputed_split_matches_direct_formula(self):
        """The 3-op runtime path must equal the full BM25 expression."""
        lengths = [50, 100, 150, 300]
        params = BM25Parameters(k1=1.6, b=0.6)
        scorer = BM25Scorer(lengths, params)
        avgdl = sum(lengths) / len(lengths)
        df, tf = 2, 5
        for doc_id, length in enumerate(lengths):
            idf = scorer.idf(df)
            direct = idf * (
                tf * (params.k1 + 1)
                / (tf + params.k1 * (1 - params.b + params.b * length / avgdl))
            )
            score = scorer.term_score(idf, tf, doc_id)
            assert score == pytest.approx(direct)

    def test_length_normalizer_is_per_doc_metadata(self):
        params = BM25Parameters()
        scorer = BM25Scorer([100, 400], params)
        avgdl = 250.0
        expected = params.k1 * (1 - params.b + params.b * 100 / avgdl)
        assert scorer.normalizer_array[0] == pytest.approx(expected)

    def test_score_increases_with_tf(self):
        scorer = BM25Scorer([100] * 10)
        idf = scorer.idf(3)
        scores = [scorer.term_score(idf, tf, 0) for tf in range(1, 20)]
        assert scores == sorted(scores)

    def test_score_saturates_with_tf(self):
        """BM25's defining property: diminishing returns in tf."""
        scorer = BM25Scorer([100] * 10)
        s1 = scorer.term_score(scorer.idf(3), 1, 0)
        s10 = scorer.term_score(scorer.idf(3), 10, 0)
        s100 = scorer.term_score(scorer.idf(3), 100, 0)
        assert (s10 - s1) > (s100 - s10) * 0.5
        assert s100 < scorer.idf(3) * (1.2 + 1)  # asymptote

    def test_shorter_docs_score_higher(self):
        scorer = BM25Scorer([50, 500])
        short = scorer.term_score(scorer.idf(1), 3, 0)
        long = scorer.term_score(scorer.idf(1), 3, 1)
        assert short > long

    def test_max_term_score(self):
        """The builder's block and list maxima are the scalar formula's
        maximum over each block, bit for bit (the block field rounded up
        to float32)."""
        lengths = [17 + (7 * d) % 90 for d in range(400)]
        builder = IndexBuilder()
        builder.declare_documents(lengths)
        doc_ids = list(range(3, 400, 2))
        tfs = [1 + (d * 5) % 11 for d in doc_ids]
        builder.add_postings("w", doc_ids, tfs)
        index = builder.build()
        scorer, plist = index.scorer, index.posting_list("w")
        assert plist.idf == scorer.idf(len(doc_ids))
        maxima = [
            max(scorer.term_score(plist.idf, tf, d) for d, tf in zip(
                doc_ids[start:start + BLOCK_SIZE],
                tfs[start:start + BLOCK_SIZE]))
            for start in range(0, len(doc_ids), BLOCK_SIZE)]
        assert plist.num_blocks == len(maxima) == 2
        assert plist.max_term_score == max(maxima)
        for stored, exact in zip(plist.block_max, maxima):
            assert stored == float(np.float32(exact)) or (
                stored == float(np.nextafter(np.float32(exact),
                                             np.float32(np.inf))))
            assert stored >= exact

    def test_max_term_score_empty(self):
        """No block is empty, so no maximum starts from nothing: the
        builder refuses an empty list."""
        builder = IndexBuilder()
        builder.declare_documents([100])
        with pytest.raises(InvertedIndexError, match="empty posting list"):
            builder.add_postings("w", [], [])
