"""Tests for the software second-stage re-ranking pipeline."""

import pytest

from repro.core import BossAccelerator, BossConfig
from repro.errors import ConfigurationError
from repro.rerank import (
    CandidateFeatures,
    LinearReranker,
    TwoStageSearch,
    _doc_length_from_normalizer,
)


@pytest.fixture(scope="module")
def engine(small_index):
    return BossAccelerator(small_index, BossConfig(k=50))


@pytest.fixture(scope="module")
def pipeline(engine):
    return TwoStageSearch(engine, first_stage_k=50)


class TestLinearReranker:
    def test_first_stage_score_dominates(self):
        model = LinearReranker()
        strong = CandidateFeatures(1, 10.0, 1, 2, 300)
        weak = CandidateFeatures(2, 1.0, 2, 2, 300)
        assert model.score(strong) > model.score(weak)

    def test_coverage_breaks_ties(self):
        model = LinearReranker()
        full = CandidateFeatures(1, 5.0, 2, 2, 300)
        partial = CandidateFeatures(2, 5.0, 1, 2, 300)
        assert model.score(full) > model.score(partial)

    def test_length_prior_peaks_at_preferred(self):
        model = LinearReranker()
        at_peak = CandidateFeatures(1, 0.0, 0, 1, 300)
        short = CandidateFeatures(2, 0.0, 0, 1, 20)
        long = CandidateFeatures(3, 0.0, 0, 1, 5000)
        assert model.score(at_peak) > model.score(short)
        assert model.score(at_peak) > model.score(long)

    def test_zero_query_terms_safe(self):
        model = LinearReranker()
        assert model.score(CandidateFeatures(1, 1.0, 0, 0, 100)) > 0


class TestTwoStagePipeline:
    def test_returns_k_from_first_stage_pool(self, pipeline):
        result = pipeline.search('"t0" OR "t3"', k=5)
        assert len(result.hits) == 5
        first_ids = {h.doc_id for h in result.first_stage.hits}
        assert all(h.doc_id in first_ids for h in result.hits)

    def test_hits_sorted_descending(self, pipeline):
        result = pipeline.search('"t1" OR "t4"', k=10)
        scores = [h.score for h in result.hits]
        assert scores == sorted(scores, reverse=True)

    def test_rerank_cost_tracks_candidates(self, pipeline):
        result = pipeline.search('"t0"', k=5)
        assert result.candidates == len(result.first_stage.hits)
        assert result.rerank_seconds == pytest.approx(
            result.candidates * LinearReranker().cost_per_candidate
        )

    def test_matched_terms_counted(self, engine, small_index):
        pipeline = TwoStageSearch(engine, first_stage_k=30)
        result = pipeline.search('"t0" OR "t1"', k=30)
        # Every returned candidate matches at least one query term.
        features = pipeline._features_for(result.first_stage)
        assert all(1 <= f.matched_terms <= 2 for f in features)

    def test_invalid_k_rejected(self, pipeline):
        with pytest.raises(ConfigurationError):
            pipeline.search('"t0"', k=0)

    def test_invalid_first_stage_k_rejected(self, engine):
        with pytest.raises(ConfigurationError):
            TwoStageSearch(engine, first_stage_k=0)


class TestNormalizerInversion:
    def test_roundtrip(self, small_index):
        scorer = small_index.scorer
        for doc_id in (0, 7, 100):
            recovered = _doc_length_from_normalizer(
                scorer.length_normalizer(doc_id), scorer
            )
            # The stored normalizer encodes the true length exactly.
            assert recovered == pytest.approx(
                small_index.scorer._doc_lengths[doc_id], rel=1e-9
            )

    @pytest.mark.parametrize("b", [0.0, 0.3, 0.75, 1.0])
    def test_roundtrip_across_b(self, b):
        """At b=1 normalization is fully length-dependent; at b=0 the
        normalizer carries no length signal at all, so the inversion
        can only return the corpus average — by design."""
        from repro.index import IndexBuilder
        from repro.index.bm25 import BM25Parameters

        builder = IndexBuilder(params=BM25Parameters(k1=1.2, b=b))
        docs = [["t0"] * 3, ["t0", "t1"] * 10, ["t1"] * 40]
        for doc in docs:
            builder.add_document(doc)
        scorer = builder.build().scorer
        for doc_id, doc in enumerate(docs):
            recovered = _doc_length_from_normalizer(
                scorer.length_normalizer(doc_id), scorer
            )
            if b == 0:
                assert recovered == pytest.approx(scorer.avgdl)
            else:
                assert recovered == pytest.approx(len(doc), rel=1e-9)

    def test_roundtrip_short_docs(self):
        """One-token documents sit far below avgdl; the inversion must
        not round them away or go negative."""
        from repro.index import IndexBuilder

        builder = IndexBuilder()
        docs = [["t0"], ["t1"], ["t0", "t1"] * 100]
        for doc in docs:
            builder.add_document(doc)
        scorer = builder.build().scorer
        for doc_id, doc in enumerate(docs):
            recovered = _doc_length_from_normalizer(
                scorer.length_normalizer(doc_id), scorer
            )
            assert recovered == pytest.approx(len(doc), rel=1e-9)
            assert recovered > 0


class TestAcrossEngines:
    """The second stage resolves candidate evidence over any first
    stage: a columnar-executor monolith, or a sharded cluster whose
    leaves carry corpus-global docIDs and statistics."""

    @pytest.fixture(scope="class")
    def documents(self):
        from repro.workloads import synthetic_documents

        return synthetic_documents(num_docs=300, vocab_size=30, seed=5)

    @pytest.fixture(scope="class")
    def monolith(self, documents):
        from repro.index import IndexBuilder

        builder = IndexBuilder()
        for doc in documents:
            builder.add_document(doc)
        return BossAccelerator(builder.build(), BossConfig(k=40))

    @pytest.fixture(scope="class")
    def cluster(self, documents):
        from repro.cluster import SearchCluster, shard_documents

        sharded = shard_documents(documents, num_shards=3)
        return SearchCluster([
            BossAccelerator(index, BossConfig(k=40))
            for index in sharded.indexes
        ])

    @pytest.fixture(scope="class")
    def columnar(self, documents):
        from repro.index import IndexBuilder

        builder = IndexBuilder()
        for doc in documents:
            builder.add_document(doc)
        return BossAccelerator(builder.build(), BossConfig(k=40),
                               executor="columnar")

    QUERIES = ['"t0" OR "t3"', '"t1" AND "t2"', '"t4" OR "t7" OR "t0"']

    @pytest.mark.parametrize("expr", QUERIES)
    def test_columnar_matches_row_pipeline(self, monolith, columnar, expr):
        row = TwoStageSearch(monolith, first_stage_k=40).search(expr, k=10)
        col = TwoStageSearch(columnar, first_stage_k=40).search(expr, k=10)
        assert [(h.doc_id, h.score) for h in row.hits] == [
            (h.doc_id, h.score) for h in col.hits
        ]

    @pytest.mark.parametrize("expr", QUERIES)
    def test_cluster_matches_monolith(self, monolith, cluster, expr):
        mono = TwoStageSearch(monolith, first_stage_k=40).search(expr, k=10)
        shard = TwoStageSearch(cluster, first_stage_k=40).search(expr, k=10)
        assert [(h.doc_id, round(h.score, 9)) for h in mono.hits] == [
            (h.doc_id, round(h.score, 9)) for h in shard.hits
        ]

    def test_cluster_features_resolve_all_candidates(self, cluster):
        pipeline = TwoStageSearch(cluster, first_stage_k=40)
        first = cluster.search('"t0" OR "t1"', k=40)
        features = pipeline._features_for(first)
        assert len(features) == len(first.hits)
        assert all(f.matched_terms >= 1 for f in features)
        assert all(f.doc_length > 0 for f in features)

    @staticmethod
    def _first_stage(documents, kind):
        """A first stage of each kind, never searched (cold caches)."""
        from repro.cluster import SearchCluster, shard_documents
        from repro.index import IndexBuilder

        config = BossConfig(k=40)
        if kind == "cluster":
            sharded = shard_documents(documents, num_shards=3)
            return SearchCluster([
                BossAccelerator(index, config) for index in sharded.indexes
            ])
        builder = IndexBuilder()
        for doc in documents:
            builder.add_document(doc)
        return BossAccelerator(builder.build(), config,
                               fast_path=kind != "reference")

    @pytest.mark.parametrize("kind", ["monolith", "cluster", "reference"])
    def test_probes_read_the_owning_engines_decoded_cache(self, documents,
                                                          kind):
        """Features are the same whether the probes find the blocks the
        first stage decoded (warm), an engine that never searched
        (cold) or no cache at all; the first-stage result is not
        charged for them."""
        import copy

        class Bare:
            """Exposes the index views and nothing else."""

            def __init__(self, engine):
                if hasattr(engine, "engines"):
                    self.engines = [Bare(leaf) for leaf in engine.engines]
                else:
                    self.index = engine.index

        engine = self._first_stage(documents, kind)
        pipeline = TwoStageSearch(engine, first_stage_k=40)
        leaves = getattr(engine, "engines", [engine])
        views = pipeline._index_views()
        assert [index for index, _cache in views] == \
            [leaf.index for leaf in leaves]
        if kind == "reference":
            assert [cache for _index, cache in views] == [None]
        else:
            assert all(cache is leaf.decoded_cache and cache is not None
                       for (_index, cache), leaf in zip(views, leaves))
        for expr in self.QUERIES:
            first = engine.search(expr, k=40)
            work = copy.deepcopy(first.work)
            traffic = first.traffic.copy()
            hits = list(first.hits)
            warm = pipeline._features_for(first)
            misses = [getattr(leaf.decoded_cache, "misses", 0)
                      for leaf in leaves]
            assert pipeline._features_for(first) == warm
            # Every block a probe lands in is cached by now.
            assert [getattr(leaf.decoded_cache, "misses", 0)
                    for leaf in leaves] == misses
            cold = TwoStageSearch(self._first_stage(documents, kind),
                                  first_stage_k=40)._features_for(first)
            bare = TwoStageSearch(Bare(engine),
                                  first_stage_k=40)._features_for(first)
            assert warm == cold == bare
            assert len(warm) == len(first.hits)
            # Probes are host-side: the first stage's measurements and
            # ranking are exactly what the engine returned.
            assert first.work == work
            assert first.traffic._bytes == traffic._bytes
            assert first.traffic._accesses == traffic._accesses
            assert first.hits == hits
        if kind != "reference":
            assert all(leaf.decoded_cache.hits for leaf in leaves)

    def test_engine_without_views_rejected(self):
        class Opaque:
            def search(self, query, k):
                raise AssertionError("unused")

        with pytest.raises(ConfigurationError):
            TwoStageSearch(Opaque())._index_views()
