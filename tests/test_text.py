"""Tests for the text-analysis chain."""

import pytest

from repro.errors import ConfigurationError
from repro.text import (
    ENGLISH_STOPWORDS,
    KEYWORD_ANALYZER,
    Analyzer,
    s_stem,
    tokenize,
)


class TestTokenizer:
    def test_basic_words(self):
        assert tokenize("Hello, world!") == ["Hello", "world"]

    def test_numbers_kept(self):
        assert tokenize("ddr4 2666 rules") == ["ddr4", "2666", "rules"]

    def test_inner_apostrophe_kept(self):
        assert tokenize("don't stop") == ["don't", "stop"]

    def test_underscores_split(self):
        assert tokenize("a_b") == ["a", "b"]

    def test_unicode_words(self):
        assert tokenize("café neighbourhood") == ["café", "neighbourhood"]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("  \n\t ...") == []


class TestSStemmer:
    @pytest.mark.parametrize("word,stem", [
        ("queries", "query"),
        ("ponies", "pony"),
        ("indexes", "indexe"),   # es-rule keeps the e
        ("caches", "cache"),
        ("documents", "document"),
        ("accelerators", "accelerator"),
        ("dogs", "dog"),
    ])
    def test_plural_stripping(self, word, stem):
        assert s_stem(word) == stem

    @pytest.mark.parametrize("word", [
        "corpus",     # -us protected
        "class",      # -ss protected
        "goes",       # -oes protected
        "is",         # too short
        "gas",        # too short to strip
    ])
    def test_protected_forms(self, word):
        assert s_stem(word) == word

    def test_short_ies_uses_es_rule(self):
        # Below the ies-rule length guard, the es rule strips one s.
        assert s_stem("dies") == "die"

    def test_idempotent_on_stems(self):
        for word in ("query", "document", "memory"):
            assert s_stem(s_stem(word)) == s_stem(word)


class TestAnalyzer:
    def test_full_chain(self):
        analyzer = Analyzer()
        terms = analyzer.analyze("The queries WERE hitting the caches!")
        assert terms == ["query", "were", "hitting", "cache"]

    def test_stopwords_removed(self):
        analyzer = Analyzer()
        assert analyzer.analyze("the and of") == []

    def test_keyword_analyzer_keeps_everything(self):
        terms = KEYWORD_ANALYZER.analyze("The Queries")
        assert terms == ["the", "queries"]

    def test_length_filter(self):
        analyzer = Analyzer(min_token_length=3, stopwords=None, stem=False)
        assert analyzer.analyze("go far away") == ["far", "away"]

    def test_callable(self):
        assert Analyzer()("memory pools") == ["memory", "pool"]

    def test_invalid_lengths_rejected(self):
        with pytest.raises(ConfigurationError):
            Analyzer(min_token_length=0)
        with pytest.raises(ConfigurationError):
            Analyzer(min_token_length=5, max_token_length=3)

    def test_stopword_list_nonempty(self):
        assert "the" in ENGLISH_STOPWORDS


def index_texts(texts, tmp_path):
    """Index one document per text the way ``build --analyze`` does."""
    from repro.cli import main
    from repro.index.binaryio import load_index_binary

    (tmp_path / "docs.txt").write_text("\n".join(texts) + "\n")
    output = tmp_path / "corpus.bossx"
    assert main(["build", "--input", str(tmp_path / "docs.txt"),
                 "--output", str(output), "--analyze"]) == 0
    return load_index_binary(output)


class TestIndexTexts:
    def test_end_to_end(self, tmp_path):
        index = index_texts([
            "The storage class memory bridges DRAM and disks.",
            "Search accelerators score documents quickly.",
            "Memory pools share one link.",
        ], tmp_path)
        assert index.stats.num_docs == 3
        assert "memory" in index
        assert "the" not in index  # stopped
        # Stemmed: "documents" -> "document".
        assert "document" in index

    def test_search_over_analyzed_corpus(self, tmp_path):
        from repro.core import BossAccelerator, BossConfig

        index = index_texts([
            "Queries hit the caches hard.",
            "The cache misses were costly.",
            "Unrelated text about gardens.",
        ], tmp_path)
        engine = BossAccelerator(index, BossConfig(k=5))
        result = engine.search('"cache"')
        assert sorted(result.doc_ids) == [0, 1]  # stem unifies forms

    def test_all_stopword_document_placeholder(self, tmp_path):
        index = index_texts(["the of and", "real content here"], tmp_path)
        assert index.stats.num_docs == 2
        assert "__empty__" in index
