"""Tests for the software second stage: BM25 candidates rescored by
vector cosine (:class:`repro.vector.hybrid.HybridSearch`, rerank mode)
over any first stage."""

import pytest

from repro.core import BossAccelerator, BossConfig
from repro.errors import ConfigurationError
from repro.vector import HybridSearch, VectorEngine, build_ivf, embed_index
from repro.vector.hybrid import RERANK_SECONDS_PER_CANDIDATE


def _vector_engine(index):
    embeddings = embed_index(index)
    return VectorEngine(build_ivf(embeddings), embeddings)


def _rerank(engine, vectors, first_stage_k):
    return HybridSearch(engine, vectors, mode="rerank",
                        first_stage_k=first_stage_k)


@pytest.fixture(scope="module")
def engine(small_index):
    return BossAccelerator(small_index, BossConfig(k=50))


@pytest.fixture(scope="module")
def vectors(small_index):
    return _vector_engine(small_index)


@pytest.fixture(scope="module")
def pipeline(engine, vectors):
    return _rerank(engine, vectors, first_stage_k=50)


class TestTwoStagePipeline:
    def test_returns_k_from_first_stage_pool(self, pipeline):
        result = pipeline.search('"t0" OR "t3"', k=5)
        assert len(result.hits) == 5
        first_ids = {h.doc_id for h in result.lexical.hits}
        assert all(h.doc_id in first_ids for h in result.hits)

    def test_hits_sorted_descending(self, pipeline):
        result = pipeline.search('"t1" OR "t4"', k=10)
        scores = [h.score for h in result.hits]
        assert scores == sorted(scores, reverse=True)

    def test_rerank_cost_tracks_candidates(self, pipeline):
        result = pipeline.search('"t0"', k=5)
        assert result.candidates == len(result.lexical.hits)
        assert result.rerank_seconds == (
            result.candidates * RERANK_SECONDS_PER_CANDIDATE
        )

    def test_invalid_k_rejected(self, pipeline):
        with pytest.raises(ConfigurationError):
            pipeline.search('"t0"', k=0)

    def test_invalid_first_stage_k_rejected(self, engine, vectors):
        with pytest.raises(ConfigurationError):
            _rerank(engine, vectors, first_stage_k=0)


class TestAcrossEngines:
    """The second stage rescores any first stage: a columnar-executor
    monolith, or a sharded cluster whose leaves carry corpus-global
    docIDs and statistics, so one set of embeddings serves all."""

    @pytest.fixture(scope="class")
    def documents(self):
        from repro.workloads import synthetic_documents

        return synthetic_documents(num_docs=300, vocab_size=30, seed=5)

    @pytest.fixture(scope="class")
    def index(self, documents):
        from repro.index import IndexBuilder

        builder = IndexBuilder()
        for doc in documents:
            builder.add_document(doc)
        return builder.build()

    @pytest.fixture(scope="class")
    def vectors(self, index):
        return _vector_engine(index)

    @pytest.fixture(scope="class")
    def monolith(self, index):
        return BossAccelerator(index, BossConfig(k=40))

    @pytest.fixture(scope="class")
    def cluster(self, documents):
        from repro.cluster import SearchCluster, shard_documents

        sharded = shard_documents(documents, num_shards=3)
        return SearchCluster([
            BossAccelerator(index, BossConfig(k=40))
            for index in sharded.indexes
        ])

    @pytest.fixture(scope="class")
    def columnar(self, index):
        return BossAccelerator(index, BossConfig(k=40), executor="columnar")

    QUERIES = ['"t0" OR "t3"', '"t1" AND "t2"', '"t4" OR "t7" OR "t0"']

    @pytest.mark.parametrize("expr", QUERIES)
    def test_columnar_matches_row_pipeline(self, monolith, columnar,
                                           vectors, expr):
        row = _rerank(monolith, vectors, 40).search(expr, k=10)
        col = _rerank(columnar, vectors, 40).search(expr, k=10)
        assert row.hits == col.hits
        assert row.modeled_seconds == col.modeled_seconds

    @pytest.mark.parametrize("expr", QUERIES)
    def test_cluster_matches_monolith(self, monolith, cluster, vectors,
                                      expr):
        mono = _rerank(monolith, vectors, 40).search(expr, k=10)
        shard = _rerank(cluster, vectors, 40).search(expr, k=10)
        assert mono.hits == shard.hits
