"""VectorEngine acceptance: differential oracle, recall floor,
bytes-conservation identity, hop/scan traffic split."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.scm.device import DDR4_4CH, OPTANE_NODE_4CH
from repro.scm.traffic import AccessClass, AccessPattern
from repro.vector import VectorEngine, build_ivf, embed_corpus
from repro.workloads.corpus import make_corpus

from .conftest import QUERIES

#: Pinned floor for recall@10 at the default nprobe (ISSUE acceptance).
RECALL_FLOOR = 0.9


class TestDifferentialOracle:
    """IVF at nprobe = num_clusters is bit-identical to brute force —
    for every codec, seed, and corpus configuration exercised here."""

    @pytest.mark.parametrize("codec", ["fp32", "int8"])
    @pytest.mark.parametrize("query", QUERIES)
    def test_full_probe_matches_brute_force(self, request, embeddings,
                                            codec, query):
        ivf = request.getfixturevalue(f"ivf_{codec}")
        engine = VectorEngine(ivf, embeddings)
        exact = engine.brute_force(query, k=20)
        full = engine.search(query, k=20, nprobe=ivf.num_clusters)
        assert [(h.doc_id, h.score) for h in full.hits] == [
            (h.doc_id, h.score) for h in exact
        ]

    @pytest.mark.parametrize("seed", [3, 7])
    @pytest.mark.parametrize("codec", ["fp32", "int8"])
    def test_across_corpora_and_seeds(self, seed, codec):
        corpus = make_corpus("clueweb12-like", scale=0.02, seed=seed)
        embeddings = embed_corpus(corpus)
        ivf = build_ivf(embeddings, num_clusters=13, codec=codec)
        engine = VectorEngine(ivf, embeddings)
        for query in ('"term0001"', '"term0002" OR "term0005"'):
            exact = engine.brute_force(query, k=15)
            full = engine.search(query, k=15, nprobe=ivf.num_clusters)
            assert [(h.doc_id, h.score) for h in full.hits] == [
                (h.doc_id, h.score) for h in exact
            ]

    def test_raw_vector_queries(self, engine):
        rng = np.random.default_rng(11)
        q = rng.standard_normal(engine.ivf.dim).astype(np.float32)
        exact = engine.brute_force(q, k=10)
        full = engine.search(q, k=10, nprobe=engine.ivf.num_clusters)
        assert [(h.doc_id, h.score) for h in full.hits] == [
            (h.doc_id, h.score) for h in exact
        ]


class TestRecall:
    @pytest.mark.parametrize("codec", ["fp32", "int8"])
    def test_default_nprobe_clears_floor(self, request, embeddings, codec):
        ivf = request.getfixturevalue(f"ivf_{codec}")
        engine = VectorEngine(ivf, embeddings)
        assert engine.recall_at_k(QUERIES, k=10) >= RECALL_FLOOR

    def test_recall_monotone_in_nprobe(self, engine):
        ivf, embeddings = engine.ivf, engine.embeddings
        narrow = VectorEngine(ivf, embeddings, nprobe=1).recall_at_k(
            QUERIES, k=10)
        default = engine.recall_at_k(QUERIES, k=10)
        full = VectorEngine(ivf, embeddings,
                            nprobe=ivf.num_clusters).recall_at_k(QUERIES, k=10)
        assert narrow <= default <= full
        assert full == pytest.approx(1.0)

    def test_recall_needs_queries(self, engine):
        with pytest.raises(ConfigurationError):
            engine.recall_at_k([], k=10)


class TestConservation:
    """centroid + cluster_seq + cluster_hop == demand, per query."""

    @pytest.mark.parametrize("query", QUERIES)
    def test_identity_holds(self, engine, query):
        result = engine.search(query, k=10)
        assert (
            result.centroid_bytes
            + result.cluster_seq_bytes
            + result.cluster_hop_bytes
            == result.demand_bytes
        )

    def test_demand_matches_layout(self, engine):
        """Demand recomputed independently from the probed regions."""
        result = engine.search('"term0001"', k=10, nprobe=5)
        probed = sorted(
            range(engine.ivf.num_clusters),
            key=lambda cid: (
                -float(engine.ivf.centroids[cid]
                       @ engine.query_vector('"term0001"')),
                cid,
            ),
        )[:5]
        expected = engine.ivf.centroid_bytes + sum(
            engine.ivf.clusters[cid].nbytes for cid in probed
        )
        assert result.demand_bytes == expected

    def test_traffic_ledger_matches_components(self, engine):
        result = engine.search('"term0003"', k=10)
        t = result.traffic
        assert t.bytes_for(AccessClass.LD_SCORE,
                           AccessPattern.SEQUENTIAL) == result.centroid_bytes
        assert t.bytes_for(AccessClass.LD_LIST,
                           AccessPattern.SEQUENTIAL) == result.cluster_seq_bytes
        assert t.bytes_for(AccessClass.LD_LIST,
                           AccessPattern.RANDOM) == result.cluster_hop_bytes

    def test_drift_raises(self, engine):
        with pytest.raises(SimulationError):
            engine._check_conservation(100, 50, 10, 200)


class TestTrafficShape:
    def test_hops_bounded_by_granule(self, engine):
        granule = engine.device.access_granule
        result = engine.search('"term0002"', k=10)
        assert result.cluster_hop_bytes <= result.clusters_probed * granule

    def test_adjacent_probes_coalesce(self, embeddings):
        """Probing every cluster in id order is one long stream: every
        probe after the first coalesces, and exactly one hop is paid."""
        ivf = build_ivf(embeddings, num_clusters=8)
        engine = VectorEngine(ivf, embeddings)
        # Force id-order probing by querying with a vector equidistant
        # enough that we instead call the scan internals directly.
        q = engine.query_vector('"term0001"')
        result = engine._scan("<all>", q, list(range(8)), 10)
        nonempty = [c for c in ivf.clusters if c.nbytes]
        assert result.coalesced_probes == len(nonempty) - 1
        assert result.cluster_hop_bytes == min(
            engine.device.access_granule, nonempty[0].nbytes
        )

    def test_scattered_probes_pay_hops(self, embeddings):
        ivf = build_ivf(embeddings, num_clusters=8)
        engine = VectorEngine(ivf, embeddings)
        q = engine.query_vector('"term0001"')
        scattered = engine._scan("<odd>", q, [0, 2, 4, 6], 10)
        assert scattered.coalesced_probes == 0
        assert scattered.cluster_hop_bytes > 0

    def test_wider_probe_more_demand(self, engine):
        narrow = engine.search('"term0001"', k=10, nprobe=1)
        wide = engine.search('"term0001"', k=10,
                             nprobe=engine.ivf.num_clusters)
        assert wide.demand_bytes > narrow.demand_bytes
        assert wide.vectors_scanned == engine.embeddings.num_docs

    def test_modeled_time_scm_slower_than_dram(self, ivf_fp32, embeddings):
        scm = VectorEngine(ivf_fp32, embeddings, device=OPTANE_NODE_4CH)
        dram = VectorEngine(ivf_fp32, embeddings, device=DDR4_4CH)
        q = '"term0001" OR "term0004"'
        assert (
            scm.search(q, k=10).modeled_seconds
            > dram.search(q, k=10).modeled_seconds
        )


class TestValidation:
    def test_mismatched_embeddings_rejected(self, ivf_fp32):
        other = embed_corpus(make_corpus("ccnews-like", scale=0.02, seed=9))
        with pytest.raises(ConfigurationError):
            VectorEngine(ivf_fp32, other)

    def test_nprobe_bounds(self, ivf_fp32, embeddings):
        with pytest.raises(ConfigurationError):
            VectorEngine(ivf_fp32, embeddings, nprobe=0)
        with pytest.raises(ConfigurationError):
            VectorEngine(ivf_fp32, embeddings,
                         nprobe=ivf_fp32.num_clusters + 1)

    def test_invalid_k(self, engine):
        with pytest.raises(ConfigurationError):
            engine.search('"term0001"', k=0)

    def test_zero_norm_raw_query_rejected(self, engine):
        with pytest.raises(ConfigurationError):
            engine.search(np.zeros(engine.ivf.dim), k=5)
