"""Tests for the Figure 3 synthetic stream generators."""

import pytest

from repro.errors import ConfigurationError
from repro.workloads.synthetic import (
    SYNTHETIC_STREAMS,
    cluster_stream,
    outlier_stream,
    uniform_stream,
    zipf_stream,
)


class TestStreamCatalog:
    def test_paper_streams_present(self):
        for name in ("uniform-sparse", "uniform-dense", "cluster",
                     "outlier-10", "outlier-30", "zipf"):
            assert name in SYNTHETIC_STREAMS

    @pytest.mark.parametrize("name", sorted(SYNTHETIC_STREAMS))
    def test_streams_are_nonnegative(self, name):
        stream = SYNTHETIC_STREAMS[name](2000)
        assert len(stream) >= 1
        assert all(g >= 0 for g in stream)

    @pytest.mark.parametrize("name", sorted(SYNTHETIC_STREAMS))
    def test_deterministic_for_seed(self, name):
        assert SYNTHETIC_STREAMS[name](500) == SYNTHETIC_STREAMS[name](500)


class TestUniform:
    def test_sparse_has_larger_gaps_than_dense(self):
        sparse = uniform_stream(5000, id_bits=28, seed=1)
        dense = uniform_stream(5000, id_bits=26, seed=1)
        assert sum(sparse) / len(sparse) > sum(dense) / len(dense)

    def test_exact_count(self):
        assert len(uniform_stream(1234, id_bits=24)) == 1234

    def test_bad_count_rejected(self):
        with pytest.raises(ConfigurationError):
            uniform_stream(0, id_bits=20)

    def test_overfull_space_rejected(self):
        with pytest.raises(ConfigurationError):
            uniform_stream(100, id_bits=5)


class TestCluster:
    def test_clustering_shrinks_median_gap(self):
        clustered = cluster_stream(5000, seed=2)
        uniform = uniform_stream(5000, id_bits=28, seed=2)
        clustered_sorted = sorted(clustered)
        uniform_sorted = sorted(uniform)
        assert clustered_sorted[len(clustered) // 2] < (
            uniform_sorted[len(uniform) // 2]
        )


class TestOutlier:
    def test_outlier_fraction_raises_max(self):
        clean = outlier_stream(5000, 0.0, seed=3)
        dirty = outlier_stream(5000, 0.3, seed=3)
        assert max(dirty) > max(clean)

    def test_more_outliers_bigger_total(self):
        ten = outlier_stream(5000, 0.10, seed=4)
        thirty = outlier_stream(5000, 0.30, seed=4)
        assert sum(thirty) > sum(ten)

    def test_fraction_bounds(self):
        with pytest.raises(ConfigurationError):
            outlier_stream(10, 1.5)


class TestZipf:
    def test_heavy_tail(self):
        stream = zipf_stream(20000, seed=5)
        # Most gaps are tiny, a few are large: classic Zipf shape.
        small = sum(1 for g in stream if g <= 2)
        assert small / len(stream) > 0.5
        assert max(stream) > 100

    def test_exponent_validation(self):
        with pytest.raises(ConfigurationError):
            zipf_stream(10, exponent=1.0)


class TestCompressionInteraction:
    def test_best_scheme_differs_across_streams(self):
        """Figure 3's punchline: no single scheme wins every stream."""
        from repro.compression import HybridSelector

        winners = {
            name: HybridSelector().select(gen(3000)).scheme
            for name, gen in SYNTHETIC_STREAMS.items()
        }
        assert len(set(winners.values())) >= 2, winners
