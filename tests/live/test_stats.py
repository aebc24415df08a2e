"""Live statistics: the global-BM25 ground truth for every segment."""

import pytest

from repro.errors import InvertedIndexError
from repro.index.bm25 import BM25Scorer
from repro.live import LiveStatistics


class TestLiveStatistics:
    def test_allocate_assigns_sequential_ids(self):
        stats = LiveStatistics()
        assert stats.allocate(3, ["a", "b"]) == 0
        assert stats.allocate(5, ["a"]) == 1
        assert stats.num_docs == 2
        assert stats.id_space == 2
        assert stats.total_tokens == 8
        assert stats.avgdl == 4.0
        assert stats.df("a") == 2 and stats.df("b") == 1

    def test_remove_updates_live_not_id_space(self):
        stats = LiveStatistics()
        stats.allocate(3, ["a", "b"])
        stats.allocate(5, ["a"])
        stats.remove(0, ["a", "b"])
        assert stats.num_docs == 1
        assert stats.id_space == 2  # docIDs are never reused
        assert stats.total_tokens == 5
        assert stats.df("a") == 1
        assert stats.df("b") == 0
        assert "b" not in stats.terms
        assert not stats.is_live(0) and stats.is_live(1)

    def test_double_delete_and_bad_ids_raise(self):
        stats = LiveStatistics()
        stats.allocate(3, ["a"])
        stats.remove(0, ["a"])
        with pytest.raises(InvertedIndexError):
            stats.remove(0, ["a"])
        with pytest.raises(InvertedIndexError):
            stats.remove(7, [])
        with pytest.raises(InvertedIndexError):
            stats.allocate(0, [])

    def test_version_bumps_on_every_mutation(self):
        stats = LiveStatistics()
        assert stats.version == 0
        stats.allocate(3, ["a"])
        stats.allocate(3, ["a"])
        assert stats.version == 2
        stats.remove(0, ["a"])
        assert stats.version == 3

    def test_scores_match_fixed_corpus_scorer(self):
        """With no deletes the live scorer is the plain corpus scorer."""
        lengths = [4, 9, 2, 15]
        stats = LiveStatistics()
        for length in lengths:
            stats.allocate(length, ["a"])
        fixed = BM25Scorer(lengths)
        live = stats.scorer()
        assert live.num_docs == fixed.num_docs
        assert live.avgdl == fixed.avgdl
        for doc_id in range(len(lengths)):
            assert (live.normalizer_array[doc_id]
                    == fixed.normalizer_array[doc_id])
        assert stats.idf("a") == fixed.idf(4)

    def test_scores_after_delete_match_survivor_rebuild(self):
        """Live N/avgdl/normalizers equal a rebuild of the survivors."""
        stats = LiveStatistics()
        for length in [4, 9, 2, 15]:
            stats.allocate(length, ["a"])
        stats.remove(1, ["a"])
        survivors = [4, 2, 15]
        rebuilt = BM25Scorer(survivors)
        live = stats.scorer()
        assert live.num_docs == 3
        assert live.avgdl == rebuilt.avgdl
        # Surviving docs keep bit-identical normalizers (global ids
        # 0, 2, 3 map to compact ids 0, 1, 2).
        for live_id, compact_id in [(0, 0), (2, 1), (3, 2)]:
            assert (live.normalizer_array[live_id]
                    == rebuilt.normalizer_array[compact_id])
        assert stats.idf("a") == rebuilt.idf(3)

    def test_scorer_cache_keyed_by_version(self):
        stats = LiveStatistics()
        stats.allocate(3, ["a"])
        first = stats.scorer()
        assert stats.scorer() is first
        stats.allocate(4, ["a"])
        assert stats.scorer() is not first

    def test_min_normalizer_is_conservative(self):
        stats = LiveStatistics()
        stats.allocate(2, ["a"])
        stats.allocate(30, ["a"])
        stats.remove(0, ["a"])  # the short doc dies...
        live = stats.scorer()
        # ...but min_normalizer still uses its length: a lower bound on
        # any live normalizer, never above one.
        assert stats.min_normalizer() <= live.normalizer_array[1]

    def test_empty_corpus_guards(self):
        stats = LiveStatistics()
        assert stats.avgdl == 0.0
        with pytest.raises(InvertedIndexError):
            stats.min_normalizer()
        with pytest.raises(InvertedIndexError):
            stats.scorer()

    def test_global_statistics_snapshot(self):
        stats = LiveStatistics()
        stats.allocate(3, ["a", "b"])
        stats.allocate(3, ["b"])
        snap = stats.global_statistics()
        assert snap.num_docs == 2
        assert snap.term_dfs == {"a": 1, "b": 2}
