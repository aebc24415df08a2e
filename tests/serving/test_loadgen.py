"""Tests for open-loop load generation (repro.serving.loadgen).

The load generator's whole contract is determinism: the same seed must
replay the same expressions at the same instants, and Poisson
timelines at different rates must be exact time-rescalings of each
other (the property the offered-load sweep depends on).
"""

import pytest

from repro.errors import ConfigurationError
from repro.serving.loadgen import (
    PoissonArrivals,
    Request,
    TraceArrivals,
    build_requests,
    zipf_workload,
)

VOCAB = [f"t{i}" for i in range(20)]


class TestPoissonArrivals:
    def test_rate_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            PoissonArrivals(0.0)
        with pytest.raises(ConfigurationError):
            PoissonArrivals(-5.0)

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigurationError):
            PoissonArrivals(100.0).times(-1)

    def test_times_ascending_and_positive(self):
        times = PoissonArrivals(200.0, seed=3).times(100)
        assert len(times) == 100
        assert times[0] > 0
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_same_seed_replays_exactly(self):
        a = PoissonArrivals(150.0, seed=7).times(64)
        b = PoissonArrivals(150.0, seed=7).times(64)
        assert a == b

    def test_different_seed_differs(self):
        assert (PoissonArrivals(150.0, seed=7).times(64)
                != PoissonArrivals(150.0, seed=8).times(64))

    def test_mean_interarrival_matches_rate(self):
        rate = 500.0
        times = PoissonArrivals(rate, seed=1).times(4000)
        mean_gap = times[-1] / len(times)
        assert mean_gap == pytest.approx(1.0 / rate, rel=0.1)

    def test_rates_are_exact_time_rescalings(self):
        # Same seed, different rates: identical traffic shape, only
        # faster — each sweep point replays the same workload.
        slow = PoissonArrivals(100.0, seed=5).times(50)
        fast = PoissonArrivals(400.0, seed=5).times(50)
        for s, f in zip(slow, fast):
            assert f == pytest.approx(s / 4.0)


class TestTraceArrivals:
    def test_replays_prefix(self):
        trace = TraceArrivals([0.0, 0.5, 1.0, 1.5])
        assert trace.times(4) == [0.0, 0.5, 1.0, 1.5]
        assert trace.times(2) == [0.0, 0.5]

    def test_equal_timestamps_allowed(self):
        assert TraceArrivals([0.0, 0.0, 1.0]).times(3) == [0.0, 0.0, 1.0]

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            TraceArrivals([-0.1, 0.5])

    def test_decreasing_rejected(self):
        with pytest.raises(ConfigurationError):
            TraceArrivals([0.5, 0.4])

    def test_overdraw_rejected(self):
        with pytest.raises(ConfigurationError):
            TraceArrivals([0.0, 1.0]).times(3)


class TestBuildRequests:
    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            build_requests([], TraceArrivals([]))

    def test_pairs_in_order(self):
        requests = build_requests(['"a"', '"b"'], TraceArrivals([0.1, 0.2]))
        assert requests == [
            Request(request_id=0, arrival_seconds=0.1, expression='"a"'),
            Request(request_id=1, arrival_seconds=0.2, expression='"b"'),
        ]


class TestZipfWorkload:
    def test_shape_and_determinism(self):
        a = zipf_workload(VOCAB, 64, rate_qps=200.0, seed=4)
        b = zipf_workload(VOCAB, 64, rate_qps=200.0, seed=4)
        assert len(a) == 64
        assert a == b
        assert [r.request_id for r in a] == list(range(64))

    def test_unique_queries_bounded(self):
        requests = zipf_workload(VOCAB, 128, rate_qps=200.0,
                                 unique_queries=8, seed=4)
        assert len({r.expression for r in requests}) <= 8
        # Zipf skew: the hottest query dominates.
        from collections import Counter

        counts = Counter(r.expression for r in requests)
        assert counts.most_common(1)[0][1] > 128 / 8

    def test_seed_governs_both_halves(self):
        a = zipf_workload(VOCAB, 32, rate_qps=200.0, seed=1)
        b = zipf_workload(VOCAB, 32, rate_qps=200.0, seed=2)
        assert [r.expression for r in a] != [r.expression for r in b]
        assert [r.arrival_seconds for r in a] != [r.arrival_seconds for r in b]
