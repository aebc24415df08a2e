"""Tests for the deterministic fault-injection harness (repro.faults).

The contract under test: zero-fault wrapping is bit-identical to the
raw engine (results, traffic, work, traces), and every injected fault
kind is a deterministic, seed-replayable function of the query.
"""

import pytest

from repro.clock import VirtualClock
from repro.core import BossAccelerator, BossConfig
from repro.errors import (
    CompressionError,
    ConfigurationError,
    FaultInjectionError,
)
from repro.faults import (
    ZERO_FAULTS,
    FaultConfig,
    FaultyEngine,
    make_faulty_cluster,
    wrap_shards,
)
from repro.observability import RecordingObserver

from tests.conftest import build_random_index, hits_as_pairs

QUERIES = [
    '"t0"',
    '"t1" AND "t3"',
    '"t2" OR "t5"',
    '"t0" AND ("t2" OR "t4")',
    '"t1" OR "t4" OR "t7"',
]


@pytest.fixture(scope="module")
def index():
    return build_random_index(num_docs=800, seed=17)


def _engine(index, observer=None):
    if observer is None:
        return BossAccelerator(index, BossConfig(k=10))
    return BossAccelerator(index, BossConfig(k=10), observer=observer)


class TestFaultConfig:
    @pytest.mark.parametrize("field", [
        "latency_spike_probability",
        "transient_failure_probability",
        "corruption_probability",
    ])
    def test_probability_range_enforced(self, field):
        with pytest.raises(ConfigurationError):
            FaultConfig(**{field: 1.5})
        with pytest.raises(ConfigurationError):
            FaultConfig(**{field: -0.1})

    def test_negative_spike_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultConfig(latency_spike_seconds=-1.0)

    def test_transient_attempts_at_least_one(self):
        with pytest.raises(ConfigurationError):
            FaultConfig(transient_failure_attempts=0)

    def test_negative_permanent_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultConfig(permanent_failure_after=-1)

    def test_zero_fault_detection(self):
        assert ZERO_FAULTS.zero_fault
        assert FaultConfig(seed=99).zero_fault
        assert not FaultConfig(transient_failure_probability=0.1).zero_fault
        assert not FaultConfig(corruption_probability=0.1).zero_fault
        assert not FaultConfig(permanent_failure_after=5).zero_fault
        # A spike probability alone perturbs timing, hence not zero-fault.
        assert not FaultConfig(latency_spike_probability=0.5).zero_fault


class TestZeroFaultPassThrough:
    """FaultConfig() wrapping must be invisible — bit-identical."""

    def test_results_traffic_work_identical(self, index):
        raw = _engine(index)
        wrapped = FaultyEngine(_engine(index))
        for expr in QUERIES:
            a = raw.search(expr)
            b = wrapped.search(expr)
            assert hits_as_pairs(a) == hits_as_pairs(b)
            assert a.traffic == b.traffic
            assert a.work == b.work

    def test_traces_identical(self, index):
        raw_obs, wrapped_obs = RecordingObserver(), RecordingObserver()
        raw = _engine(index, observer=raw_obs)
        wrapped = FaultyEngine(_engine(index, observer=wrapped_obs))
        for expr in QUERIES:
            raw.search(expr)
            wrapped.search(expr)
            assert (raw_obs.last_trace.to_dict()
                    == wrapped_obs.last_trace.to_dict())

    def test_no_bookkeeping_on_passthrough(self, index):
        wrapped = FaultyEngine(_engine(index))
        wrapped.search('"t0"')
        assert wrapped.stats.queries == 0
        assert wrapped.stats.attempts == 0

    def test_attribute_delegation(self, index):
        engine = _engine(index)
        wrapped = FaultyEngine(engine)
        assert wrapped.index is engine.index
        assert wrapped.config is engine.config
        assert wrapped.engine is engine


class TestDeterminism:
    def test_same_seed_same_schedule(self, index):
        config = FaultConfig(seed=3, transient_failure_probability=0.4,
                             corruption_probability=0.2)
        schedules = []
        for _ in range(2):
            wrapped = FaultyEngine(_engine(index), config, shard_id=1)
            schedules.append([wrapped.would_fault(q) for q in QUERIES])
        assert schedules[0] == schedules[1]
        assert any(schedules[0])  # the schedule is not vacuously empty

    def test_different_seed_or_shard_different_stream(self, index):
        # Over enough queries, seed and shard id must both matter.
        queries = [f'"t{i}"' for i in range(20)]
        config = FaultConfig(seed=3, transient_failure_probability=0.5)

        def schedule(seed, shard):
            cfg = FaultConfig(seed=seed, transient_failure_probability=0.5)
            wrapped = FaultyEngine(_engine(index), cfg, shard_id=shard)
            return [wrapped.would_fault(q) for q in queries]

        base = schedule(3, 1)
        assert schedule(4, 1) != base
        assert schedule(3, 2) != base

    def test_schedule_independent_of_arrival_order(self, index):
        config = FaultConfig(seed=5, transient_failure_probability=0.5)
        forward = FaultyEngine(_engine(index), config)
        backward = FaultyEngine(_engine(index), config)
        fwd = {q: forward.would_fault(q) for q in QUERIES}
        bwd = {q: backward.would_fault(q) for q in reversed(QUERIES)}
        assert fwd == bwd


class TestFaultKinds:
    def test_transient_fails_then_succeeds(self, index):
        config = FaultConfig(transient_failure_probability=1.0,
                             transient_failure_attempts=2)
        raw = _engine(index)
        wrapped = FaultyEngine(_engine(index), config)
        for attempt in range(2):
            with pytest.raises(FaultInjectionError) as exc:
                wrapped.search('"t0"')
            assert exc.value.kind == "transient"
        healed = wrapped.search('"t0"')  # third attempt of the same query
        assert hits_as_pairs(healed) == hits_as_pairs(raw.search('"t0"'))
        assert wrapped.stats.transient_failures == 2
        assert wrapped.stats.queries == 1
        assert wrapped.stats.attempts == 3

    def test_permanent_death(self, index):
        config = FaultConfig(permanent_failure_after=1)
        wrapped = FaultyEngine(_engine(index), config)
        wrapped.search('"t0"')  # query 1 still answers
        for expr in ('"t1"', '"t2"', '"t1"'):
            with pytest.raises(FaultInjectionError) as exc:
                wrapped.search(expr)
            assert exc.value.kind == "permanent"
        assert wrapped.stats.permanent_failures == 3

    def test_corruption_raises_compression_error_and_persists(self, index):
        config = FaultConfig(corruption_probability=1.0)
        wrapped = FaultyEngine(_engine(index), config, shard_id=2)
        # The bytes stay bad: every attempt of the afflicted query fails.
        for _ in range(3):
            with pytest.raises(CompressionError) as exc:
                wrapped.search('"t0" AND "t1"')
            assert "shard 2" in str(exc.value)
        assert wrapped.stats.corruptions == 3

    def test_latency_spike_completes(self, index):
        config = FaultConfig(latency_spike_probability=1.0,
                             latency_spike_seconds=0.001)
        clock = VirtualClock()
        raw = _engine(index)
        wrapped = FaultyEngine(_engine(index), config, clock=clock)
        result = wrapped.search('"t0"')
        assert hits_as_pairs(result) == hits_as_pairs(raw.search('"t0"'))
        assert wrapped.stats.latency_spikes == 1
        stats = wrapped.stats  # a spike is not a failure
        assert (stats.transient_failures + stats.permanent_failures
                + stats.corruptions) == 0
        # The spike was charged to the injected clock, not the wall.
        assert clock.sleeps == [0.001]

    def test_spike_sleeps_on_wall_clock_by_default(self, index,
                                                   monkeypatch):
        # Without an injected clock a spike really stalls the caller —
        # intercept the singleton wall clock rather than sleeping.
        slept = []
        monkeypatch.setattr("repro.clock.WALL_CLOCK.sleep", slept.append)
        config = FaultConfig(latency_spike_probability=1.0,
                             latency_spike_seconds=0.25)
        FaultyEngine(_engine(index), config).search('"t0"')
        assert slept == [0.25]


class TestWrapShards:
    def test_single_config_broadcast(self, index):
        engines = [_engine(index) for _ in range(3)]
        wrapped = wrap_shards(engines, ZERO_FAULTS)
        assert [w.shard_id for w in wrapped] == [0, 1, 2]
        assert all(w.faults is ZERO_FAULTS for w in wrapped)

    def test_none_entries_become_zero_fault(self, index):
        engines = [_engine(index) for _ in range(2)]
        hot = FaultConfig(transient_failure_probability=0.5)
        wrapped = wrap_shards(engines, [hot, None])
        assert wrapped[0].faults is hot
        assert wrapped[1].faults.zero_fault

    def test_length_mismatch_rejected(self, index):
        with pytest.raises(ConfigurationError):
            wrap_shards([_engine(index)], [ZERO_FAULTS, ZERO_FAULTS])


class TestFaultyClusterDifferential:
    """Zero faults + replication 1 must match the plain cluster exactly."""

    def test_bit_identical_to_plain_cluster(self):
        from repro.cluster import SearchCluster, shard_documents
        from repro.workloads import synthetic_documents

        documents = synthetic_documents(num_docs=600, seed=9)
        faulty, _sharded = make_faulty_cluster(documents, 3, k=10)
        plain_sharded = shard_documents(documents, 3)
        plain = SearchCluster([
            BossAccelerator(idx, BossConfig(k=10))
            for idx in plain_sharded.indexes
        ])
        for expr in QUERIES:
            a = faulty.search(expr, k=10)
            b = plain.search(expr, k=10)
            assert hits_as_pairs(a) == hits_as_pairs(b)
            assert a.traffic == b.traffic
            assert a.work == b.work
            assert a.interconnect_bytes == b.interconnect_bytes
            assert not a.degraded and a.shards_failed == []

    def test_virtual_clock_cluster_never_wall_sleeps(self, monkeypatch):
        # Regression (wall-clock sleep bug): latency spikes used to
        # call time.sleep directly, so fault scenarios burned real
        # seconds. With an injected VirtualClock the whole run must
        # finish without a single real sleep.
        import time

        from repro.cluster.resilience import ResiliencePolicy
        from repro.workloads import synthetic_documents

        def _no_sleep(seconds):
            raise AssertionError(
                f"time.sleep({seconds}) during a virtual-clock run"
            )

        monkeypatch.setattr(time, "sleep", _no_sleep)
        clock = VirtualClock()
        documents = synthetic_documents(num_docs=300, seed=9)
        faults = FaultConfig(seed=2, latency_spike_probability=0.6,
                             latency_spike_seconds=0.05,
                             transient_failure_probability=0.4)
        policy = ResiliencePolicy(max_retries=2, allow_degraded=True)
        cluster, _ = make_faulty_cluster(documents, 3, faults=faults,
                                         policy=policy, clock=clock)
        for expr in QUERIES:
            assert cluster.search(expr, k=10).hits
        # The scenario did sleep — just on simulated time.
        assert sum(clock.sleeps) > 0

    def test_replicas_share_the_shard_index(self):
        from repro.workloads import synthetic_documents

        documents = synthetic_documents(num_docs=300, seed=9)
        cluster, sharded = make_faulty_cluster(
            documents, 2, replication_factor=3
        )
        assert sharded.replication_factor == 3
        for shard in range(2):
            chain = cluster.shard_candidates(shard)
            assert len(chain) == 3
            # Replication is engine redundancy over one shard index.
            assert all(c.index is chain[0].index for c in chain[1:])
            # Each candidate draws from its own fault-schedule stream.
            assert len({c.shard_id for c in chain}) == 3
