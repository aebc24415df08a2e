"""Tests for the synthetic corpus generators."""

import pytest

from repro.errors import ConfigurationError
from repro.workloads.corpus import (
    CCNEWS_LIKE,
    CLUEWEB12_LIKE,
    CorpusSpec,
    SyntheticCorpus,
    make_corpus,
)


@pytest.fixture(scope="module")
def corpus():
    return make_corpus("ccnews-like", scale=0.1)


class TestSpecs:
    def test_presets_differ_in_character(self):
        assert CLUEWEB12_LIKE.mean_doc_length > CCNEWS_LIKE.mean_doc_length
        assert CCNEWS_LIKE.locality > CLUEWEB12_LIKE.locality

    def test_invalid_specs_rejected(self):
        with pytest.raises(ConfigurationError):
            CorpusSpec(name="bad", num_docs=0)
        with pytest.raises(ConfigurationError):
            CorpusSpec(name="bad", max_df_fraction=0.0)
        with pytest.raises(ConfigurationError):
            CorpusSpec(name="bad", locality=2.0)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigurationError):
            make_corpus("wikipedia")

    def test_bad_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            make_corpus("ccnews-like", scale=0)


class TestGeneratedCorpus:
    def test_index_is_consistent(self, corpus):
        index = corpus.index
        assert index.stats.num_docs == corpus.spec.num_docs
        assert index.num_terms == corpus.spec.num_terms

    def test_zipfian_popularity(self, corpus):
        """df falls with term rank (term0000 is the most popular)."""
        dfs = [corpus.term_dfs[t] for t in corpus.terms]
        assert dfs[0] > dfs[len(dfs) // 2] > 0
        assert dfs[0] == max(dfs)

    def test_terms_by_df_sorted(self, corpus):
        ranked = corpus.terms_by_df()
        dfs = [corpus.term_dfs[t] for t in ranked]
        assert dfs == sorted(dfs, reverse=True)

    def test_posting_lists_decode(self, corpus):
        index = corpus.index
        for term in list(index)[:10]:
            postings = index.posting_list(term).decode_all()
            doc_ids = [p.doc_id for p in postings]
            assert doc_ids == sorted(doc_ids)
            assert all(p.tf >= 1 for p in postings)
            assert len(postings) == corpus.term_dfs[term]

    def test_block_max_scores_vary(self, corpus):
        """Topical locality must create per-block score variance — the
        raw material of block-level ET."""
        index = corpus.index
        popular = corpus.terms_by_df()[0]
        blocks = index.posting_list(popular).blocks
        maxima = [b.metadata.max_term_score for b in blocks]
        assert len(maxima) > 3
        assert max(maxima) > 1.05 * min(maxima)
        assert len(set(round(m, 6) for m in maxima)) > 1

    def test_deterministic_for_seed(self):
        a = make_corpus("ccnews-like", scale=0.05)
        b = make_corpus("ccnews-like", scale=0.05)
        assert a.term_dfs == b.term_dfs

    def test_seed_override_changes_corpus(self):
        a = make_corpus("ccnews-like", scale=0.05)
        b = make_corpus("ccnews-like", scale=0.05, seed=99)
        pa = a.index.posting_list(a.terms[0]).decode_all()
        pb = b.index.posting_list(b.terms[0]).decode_all()
        assert pa != pb
