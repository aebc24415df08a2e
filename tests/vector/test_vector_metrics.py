"""Observer wiring: vector.*, hybrid.* and the rerank stage's registry
metrics."""

import pytest

from repro.core import BossAccelerator, BossConfig
from repro.observability import RecordingObserver
from repro.vector import HybridSearch, VectorEngine


@pytest.fixture()
def observer():
    return RecordingObserver()


class TestVectorMetrics:
    def test_per_query_counters(self, ivf_fp32, embeddings, observer):
        engine = VectorEngine(ivf_fp32, embeddings, observer=observer)
        result = engine.search('"term0001"', k=10)
        registry = observer.registry
        assert registry.get("vector.queries").total() == 1
        assert (
            registry.get("vector.demand_bytes").total()
            == result.demand_bytes
        )
        moved = registry.get("vector.bytes")
        assert moved.value(component="centroid") == result.centroid_bytes
        assert moved.value(component="cluster_seq") == result.cluster_seq_bytes
        assert moved.value(component="cluster_hop") == result.cluster_hop_bytes
        assert (
            registry.get("vector.clusters_probed").total()
            == result.clusters_probed
        )
        assert (
            registry.get("vector.vectors_scanned").total()
            == result.vectors_scanned
        )

    def test_conservation_visible_in_metrics(self, ivf_int8, embeddings,
                                             observer):
        """The identity holds in the aggregated registry too."""
        engine = VectorEngine(ivf_int8, embeddings, observer=observer)
        for query in ('"term0001"', '"term0002"', '"term0005"'):
            engine.search(query, k=10)
        registry = observer.registry
        moved = registry.get("vector.bytes")
        assert (
            moved.value(component="centroid")
            + moved.value(component="cluster_seq")
            + moved.value(component="cluster_hop")
            == registry.get("vector.demand_bytes").total()
        )

    def test_latency_histogram_populated(self, ivf_fp32, embeddings,
                                         observer):
        engine = VectorEngine(ivf_fp32, embeddings, observer=observer)
        engine.search('"term0003"', k=10)
        hist = observer.registry.get("vector.latency_us")
        assert hist is not None
        assert hist.count() == 1


class TestRerankMetrics:
    def test_stage_counters(self, corpus, engine, observer):
        """The rerank stage's host seconds land in the pipeline ledger
        beside the device stages; its query and candidate counts are
        the hybrid series' own."""
        lexical = BossAccelerator(corpus.index, BossConfig(k=50))
        hybrid = HybridSearch(lexical, engine, mode="rerank",
                              first_stage_k=50, observer=observer)
        result = hybrid.search('"term0001" OR "term0002"', k=10)
        registry = observer.registry
        assert registry.get("hybrid.queries").value(mode="rerank") == 1
        assert (
            registry.get("hybrid.candidates").value(mode="rerank")
            == result.candidates
        )
        assert registry.get("pipeline.stage_seconds").value(
            stage="rerank", engine="host"
        ) == result.rerank_seconds
        assert not [name for name in registry.snapshot()
                    if name.startswith("rerank.")]


class TestHybridMetrics:
    @pytest.mark.parametrize("mode", ["rerank", "rrf"])
    def test_labeled_by_mode(self, corpus, engine, observer, mode):
        lexical = BossAccelerator(corpus.index, BossConfig(k=50))
        hybrid = HybridSearch(lexical, engine, mode=mode,
                              first_stage_k=30, observer=observer)
        result = hybrid.search('"term0001"', k=10)
        registry = observer.registry
        assert registry.get("hybrid.queries").value(mode=mode) == 1
        assert (
            registry.get("hybrid.candidates").value(mode=mode)
            == result.candidates
        )
        assert registry.get("hybrid.latency_us").count(mode=mode) == 1
