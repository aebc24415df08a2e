"""Hybrid lane: vector reranking, RRF fusion, serving adapter."""

import pytest

from repro.core import BossAccelerator, BossConfig
from repro.errors import ConfigurationError
from repro.serving import QueryServer, ServingConfig, TraceArrivals, build_requests
from repro.vector import (
    HybridSearch,
    HybridServingTarget,
    VectorEngine,
    rrf_fuse,
)
from repro.vector.embeddings import NUM_TOPICS
from repro.vector.hybrid import RRF_C, vector_rescore

from .conftest import QUERIES


@pytest.fixture(scope="module")
def lexical(corpus):
    return BossAccelerator(corpus.index, BossConfig(k=100))


@pytest.fixture(scope="module")
def hybrid_rerank(lexical, engine):
    return HybridSearch(lexical, engine, mode="rerank", first_stage_k=50)


@pytest.fixture(scope="module")
def hybrid_rrf(lexical, engine):
    return HybridSearch(lexical, engine, mode="rrf", first_stage_k=50)


class TestRRFFusion:
    def test_agreement_wins(self):
        fused = rrf_fuse([[1, 2, 3], [2, 1, 4]], k=4)
        assert fused[0].doc_id in (1, 2)
        # Doc 3 and 4 each appear once at rank 3; tie breaks on doc_id.
        tail = [h.doc_id for h in fused[2:]]
        assert tail == sorted(tail)

    def test_scores_are_reciprocal_ranks(self):
        fused = rrf_fuse([[7], [7]], k=1)
        assert fused[0].score == pytest.approx(2.0 / (RRF_C + 1))

    def test_deterministic(self):
        rankings = [[5, 3, 9, 1], [9, 5, 2]]
        assert rrf_fuse(rankings, k=5) == rrf_fuse(rankings, k=5)

    def test_invalid_args(self):
        with pytest.raises(ConfigurationError):
            rrf_fuse([[1]], k=0)


class TestVectorReranker:
    """The rerank mode's second stage, :func:`vector_rescore`."""

    def test_reorders_by_cosine(self, hybrid_rerank):
        result = hybrid_rerank.search('"term0001" OR "term0003"', k=10)
        assert len(result.hits) == 10
        scores = [h.score for h in result.hits]
        assert scores == sorted(scores, reverse=True)

    def test_charges_one_load_per_candidate(self, lexical, engine,
                                            hybrid_rerank):
        from repro.scm.traffic import AccessPattern

        first = lexical.search('"term0002"', k=50)
        scores, loaded = vector_rescore(engine.embeddings, first)
        assert len(scores) == len(first.hits)
        assert loaded == len(first.hits) * engine.embeddings.dim * 4
        read = engine.device.read_time(loaded, AccessPattern.RANDOM)
        assert read > 0
        result = hybrid_rerank.search('"term0002"', k=10)
        assert result.candidates == len(first.hits)
        assert result.modeled_seconds == (
            engine.device.service_time(result.lexical.traffic)
            + result.rerank_seconds + read
        )

    def test_unknown_query_degrades_to_lexical(self, engine):
        """No known term -> no query vector -> first-stage order kept."""
        from repro.core.query import parse_query

        known = _first_stage(parse_query('"term0001"'), [(3, 2.5)])
        scores, loaded = vector_rescore(engine.embeddings, known)
        assert scores[0] != pytest.approx(2.5)
        assert loaded == engine.embeddings.dim * 4
        # A synthetic query node over unknown terms degrades.
        class FakeNode:
            def terms(self):
                return ["zzz-unknown"]

        unknown = _first_stage(FakeNode(), [(3, 2.5), (1, 0.5)])
        scores, loaded = vector_rescore(engine.embeddings, unknown)
        assert scores == pytest.approx([2.5, 0.5])
        assert loaded == 0


def _first_stage(query, hits):
    from repro.core.result import ScoredDocument, SearchResult

    return SearchResult(query=query,
                        hits=[ScoredDocument(d, s) for d, s in hits])


class TestConcurrentQueries:
    def test_pooled_batch_equals_serial(self, hybrid_rerank):
        """The rescoring keeps nothing between queries, so the pooled
        batch driver's promise — results bit-identical to serial
        execution — holds for the hybrid target. (It did not while one
        shared reranker held the current query's vector and traffic:
        threads rescored with each other's query.)"""
        import sys

        from repro.batch import run_query_batch

        from itertools import combinations

        queries = [
            f'"term{a:04d}" OR "term{b:04d}"'
            for a, b in combinations(range(21), 2)
        ]
        serial = run_query_batch(hybrid_rerank, queries, k=10)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            pooled = run_query_batch(hybrid_rerank, queries, k=10,
                                     workers=4)
        finally:
            sys.setswitchinterval(interval)
        assert pooled.report.workers == 4
        for query, one, other in zip(queries, serial.results,
                                     pooled.results):
            assert one.hits == other.hits, query
            assert one.modeled_seconds == other.modeled_seconds, query

    def test_observed_batch_runs_on_one_worker(self, corpus):
        """A recording observer is not thread-safe, so the batch driver
        pins an observed hybrid target to one worker."""
        from repro.api import BossSession
        from repro.batch import run_query_batch
        from repro.observability import RecordingObserver

        session = BossSession(observer=RecordingObserver())
        session.init(corpus.index)
        session.init_vectors()
        queries = [f'"term{n:04d}"' for n in range(1, 9)]
        batch = run_query_batch(session.hybrid(), queries, k=10,
                                workers=4)
        assert batch.report.workers == 1


class TestHybridSearch:
    @pytest.mark.parametrize("query", QUERIES)
    def test_rerank_mode(self, hybrid_rerank, query):
        result = hybrid_rerank.search(query, k=10)
        assert result.mode == "rerank"
        assert result.vector is None
        assert result.candidates == len(result.lexical.hits)
        assert result.modeled_seconds > 0
        first_ids = {h.doc_id for h in result.lexical.hits}
        assert all(h.doc_id in first_ids for h in result.hits)

    @pytest.mark.parametrize("query", QUERIES)
    def test_rrf_mode(self, hybrid_rrf, query):
        result = hybrid_rrf.search(query, k=10)
        assert result.mode == "rrf"
        assert result.vector is not None
        lexical_ids = {h.doc_id for h in result.lexical.hits}
        vector_ids = {h.doc_id for h in result.vector.hits}
        assert all(
            h.doc_id in (lexical_ids | vector_ids) for h in result.hits
        )
        assert result.modeled_seconds >= result.vector.modeled_seconds

    def test_rrf_surfaces_vector_only_docs_possible(self, hybrid_rrf):
        """Fused candidate pool is the union of both retrievers."""
        result = hybrid_rrf.search('"term0001"', k=10)
        union = (
            {h.doc_id for h in result.lexical.hits}
            | {h.doc_id for h in result.vector.hits}
        )
        assert result.candidates == len(union)

    def test_deterministic(self, lexical, engine):
        a = HybridSearch(lexical, engine, mode="rrf").search(QUERIES[1])
        b = HybridSearch(lexical, engine, mode="rrf").search(QUERIES[1])
        assert [(h.doc_id, h.score) for h in a.hits] == [
            (h.doc_id, h.score) for h in b.hits
        ]

    def test_unknown_mode_rejected(self, lexical, engine):
        with pytest.raises(ConfigurationError):
            HybridSearch(lexical, engine, mode="linear")

    def test_invalid_k_rejected(self, hybrid_rerank):
        with pytest.raises(ConfigurationError):
            hybrid_rerank.search('"term0001"', k=0)


class TestServingAdapter:
    @pytest.mark.parametrize("mode", ["rerank", "rrf"])
    def test_rides_query_server(self, lexical, engine, mode):
        hybrid = HybridSearch(lexical, engine, mode=mode,
                              first_stage_k=30)
        target = HybridServingTarget(hybrid)
        times = [i * 0.01 for i in range(8)]
        requests = build_requests(
            [QUERIES[i % len(QUERIES)] for i in range(8)],
            TraceArrivals(times),
        )
        server = QueryServer(target, ServingConfig(),
                             service_time=target.service_time)
        outcome = server.serve(requests)
        assert len(outcome.served_results()) == 8
        for result in outcome.served_results():
            assert result.mode == mode
            assert result.hits

    def test_service_time_is_modeled_seconds(self, hybrid_rerank):
        target = HybridServingTarget(hybrid_rerank)
        result = target.search('"term0001"', k=5)
        assert target.service_time(None, result) == result.modeled_seconds


class TestTopicPurity:
    """Hybrid retrieval must not lose to BM25 alone on topical
    coherence: the share of the top-10 in the query's dominant topic
    band (the corpus has planted bands, not relevance judgments)."""

    def test_hybrid_at_least_as_pure_as_lexical(self, corpus, embeddings,
                                                engine):
        import numpy as np

        from repro.workloads.queries import QuerySampler

        topics = embeddings.doc_topics
        centroids = np.stack([
            embeddings.doc_vectors[topics == band].mean(axis=0)
            for band in range(NUM_TOPICS)
        ])
        lexical = BossAccelerator(corpus.index, BossConfig(k=10))
        retrievers = {"lexical": lexical}
        for mode in ("rerank", "rrf"):
            retrievers[mode] = HybridSearch(lexical, engine, mode=mode,
                                            first_stage_k=60)
        queries = [
            spec.expression for spec in
            QuerySampler(corpus.terms_by_df(), seed=23).sample_zipf_log(
                24, unique_queries=24)
        ]
        purity = {name: 0.0 for name in retrievers}
        for query in queries:
            target = int(np.argmax(centroids @ engine.query_vector(query)))
            for name, retriever in retrievers.items():
                hits = retriever.search(query, k=10).hits
                purity[name] += sum(
                    topics[h.doc_id] == target for h in hits
                ) / max(1, len(hits))
        assert max(purity["rerank"], purity["rrf"]) >= purity["lexical"]
