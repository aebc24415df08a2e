"""Tests for resilient leaf execution: retry, timeout, failover, degrade.

Two layers: unit tests of ``execute_leaf`` over stub engines with
scripted failures, and seeded fault-matrix tests over real clusters
built by ``make_faulty_cluster`` (the acceptance scenarios: transient
faults healed by retries, permanent death degrading the merge — both
deterministic across runs).
"""

import pytest

from repro.clock import VirtualClock
from repro.cluster.resilience import (
    STRICT_POLICY,
    LeafOutcome,
    ResiliencePolicy,
    describe_outcomes,
    execute_leaf,
)
from repro.cluster.root import SearchCluster
from repro.core import BossAccelerator, BossConfig
from repro.errors import ConfigurationError, LeafExecutionError
from repro.faults import ZERO_FAULTS, FaultConfig, make_faulty_cluster
from repro.observability import RecordingObserver, observing
from repro.workloads import synthetic_documents

from tests.conftest import hits_as_pairs

QUERIES = [
    '"t0"',
    '"t1" AND "t3"',
    '"t2" OR "t5"',
    '"t0" AND ("t2" OR "t4")',
    '"t1" OR "t4" OR "t7"',
]


class ScriptedEngine:
    """Fails its first ``failures`` calls, then returns ``payload``.

    ``delay`` advances ``clock`` (a VirtualClock) per call, so timeout
    scenarios run in zero wall time.
    """

    def __init__(self, failures=0, payload="ok", delay=0.0, clock=None):
        self.failures = failures
        self.payload = payload
        self.delay = delay
        self.clock = clock
        self.calls = 0

    def search(self, query, k=None):
        self.calls += 1
        if self.delay:
            self.clock.advance(self.delay)
        if self.calls <= self.failures:
            raise RuntimeError(f"scripted failure #{self.calls}")
        return self.payload


class KeepingObserver(RecordingObserver):
    """A recording observer that also keeps every emitted event."""

    def __init__(self):
        super().__init__()
        self.events = []

    def emit(self, event):
        self.events.append(event)
        super().emit(event)


class TestPolicyValidation:
    def test_defaults_allow_degraded(self):
        policy = ResiliencePolicy()
        assert policy.allow_degraded
        assert not STRICT_POLICY.allow_degraded

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(timeout_seconds=0)
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(max_retries=-1)


class TestExecuteLeaf:
    def test_no_candidates_rejected(self):
        with pytest.raises(ConfigurationError):
            execute_leaf([], None, 10, STRICT_POLICY, 0)

    @pytest.mark.parametrize("failures,budget,survives", [
        (0, 0, True), (1, 0, False), (1, 1, True),
        (2, 1, False), (2, 2, True), (3, 2, False),
    ])
    def test_transient_by_retry_budget_matrix(self, failures, budget,
                                              survives):
        engine = ScriptedEngine(failures=failures)
        policy = ResiliencePolicy(max_retries=budget, allow_degraded=True)
        outcome = execute_leaf([engine], "q", 10, policy, 3)
        assert outcome.failed is (not survives)
        if survives:
            assert outcome.result == "ok"
            assert outcome.attempts == failures + 1
            assert outcome.retries == failures
        else:
            assert outcome.result is None
            assert outcome.attempts == budget + 1
            assert "scripted failure" in outcome.error

    def test_failover_to_replica(self):
        primary = ScriptedEngine(failures=99)
        replica = ScriptedEngine(payload="from-replica")
        policy = ResiliencePolicy(max_retries=1, allow_degraded=True)
        outcome = execute_leaf([primary, replica], "q", 10, policy, 0)
        assert not outcome.failed
        assert outcome.result == "from-replica"
        assert outcome.failovers == 1
        assert primary.calls == 2  # fresh budget spent on the primary
        assert replica.calls == 1

    def test_timeout_discards_late_result_while_budget_remains(self):
        # Regression (late-result bug): a slow-but-successful attempt
        # must still be discarded and retried when retries remain, yet
        # the *final* attempt's late answer must be kept — previously
        # the shard was reported failed even though it answered.
        clock = VirtualClock()
        engine = ScriptedEngine(delay=0.02, clock=clock)
        policy = ResiliencePolicy(timeout_seconds=0.001, max_retries=1,
                                  allow_degraded=True)
        outcome = execute_leaf([engine], "q", 10, policy, 1, clock=clock)
        assert not outcome.failed
        assert outcome.result == "ok"
        assert engine.calls == 2  # attempt 1's late answer was discarded
        assert outcome.timeouts == 2  # every attempt overran, all counted
        assert outcome.retries == 1
        assert outcome.error is None

    def test_timeout_late_result_kept_without_retry_budget(self):
        clock = VirtualClock()
        engine = ScriptedEngine(delay=0.02, clock=clock)
        policy = ResiliencePolicy(timeout_seconds=0.001,
                                  allow_degraded=True)
        outcome = execute_leaf([engine], "q", 10, policy, 1, clock=clock)
        assert not outcome.failed
        assert outcome.result == "ok"
        assert engine.calls == 1
        assert outcome.timeouts == 1
        assert outcome.attempt_seconds == pytest.approx(0.02)

    def test_timeout_prefers_replica_over_late_primary(self):
        # A late primary answer is only a last resort: while a replica
        # remains, failover must still run and its timely answer wins.
        clock = VirtualClock()
        primary = ScriptedEngine(delay=0.02, payload="late",
                                 clock=clock)
        replica = ScriptedEngine(payload="timely")
        policy = ResiliencePolicy(timeout_seconds=0.001,
                                  allow_degraded=True)
        outcome = execute_leaf([primary, replica], "q", 10, policy, 0,
                               clock=clock)
        assert not outcome.failed
        assert outcome.result == "timely"
        assert outcome.failovers == 1
        assert outcome.timeouts == 1

    def test_timeout_late_result_kept_on_last_replica(self):
        clock = VirtualClock()
        primary = ScriptedEngine(failures=99)
        replica = ScriptedEngine(delay=0.02, payload="late", clock=clock)
        policy = ResiliencePolicy(timeout_seconds=0.001,
                                  allow_degraded=True)
        outcome = execute_leaf([primary, replica], "q", 10, policy, 0,
                               clock=clock)
        assert not outcome.failed
        assert outcome.result == "late"
        assert outcome.failovers == 1
        assert outcome.timeouts == 1

    def test_timeout_observer_counts_final_kept_attempt(self):
        observer = RecordingObserver()
        clock = VirtualClock()
        engine = ScriptedEngine(delay=0.02, clock=clock)
        policy = ResiliencePolicy(timeout_seconds=0.001,
                                  allow_degraded=True)
        with observing(observer):
            execute_leaf([engine], "q", 10, policy, 3, clock=clock)
        events = observer.metrics.get("cluster.resilience_events")
        assert events.value(event="timeout", shard="3") == 1

    def test_strict_policy_raises_naming_query_and_shard(self):
        engine = ScriptedEngine(failures=99)
        with pytest.raises(LeafExecutionError) as exc:
            execute_leaf([engine], "q", 10, STRICT_POLICY, 4,
                         expression='"a" AND "b"')
        assert exc.value.shard_index == 4
        assert exc.value.expression == '"a" AND "b"'
        assert '"a" AND "b"' in str(exc.value)
        assert "shard 4" in str(exc.value)

    def test_strict_failure_is_one_failed_attempt(self):
        # The strict policy runs the same ladder as every other: one
        # attempt, recorded failed before the error propagates.
        observer = KeepingObserver()
        engine = ScriptedEngine(failures=99)
        with observing(observer), pytest.raises(LeafExecutionError):
            execute_leaf([engine], "q", 10, STRICT_POLICY, 5,
                         clock=VirtualClock())
        [outcome] = observer.events
        assert isinstance(outcome, LeafOutcome)
        assert outcome.attempts == 1 and engine.calls == 1
        assert outcome.failed
        assert "scripted failure" in outcome.error
        events = observer.metrics.get("cluster.resilience_events")
        assert events.value(event="shard_failed", shard="5") == 1

    def test_exhaustion_raises_when_degradation_forbidden(self):
        engine = ScriptedEngine(failures=99)
        policy = ResiliencePolicy(max_retries=1, allow_degraded=False)
        with pytest.raises(LeafExecutionError) as exc:
            execute_leaf([engine], "q", 10, policy, 2, expression='"x"')
        assert "shard 2" in str(exc.value)
        assert engine.calls == 2

    def test_retries_and_failover_run_back_to_back(self):
        # Fault draws count attempts, not time: nothing waits between
        # attempts, on one candidate or across the failover boundary.
        clock = VirtualClock()
        primary = ScriptedEngine(failures=99)
        replica = ScriptedEngine(failures=1, payload="from-replica")
        policy = ResiliencePolicy(max_retries=2, allow_degraded=True)
        outcome = execute_leaf([primary, replica], "q", 10, policy, 0,
                               clock=clock)
        assert outcome.result == "from-replica"
        assert (outcome.attempts, outcome.retries, outcome.failovers) == (
            5, 3, 1)
        assert clock.sleeps == []
        assert outcome.elapsed_seconds == 0.0

    def test_describe_outcomes(self):
        text = describe_outcomes([
            LeafOutcome(shard_index=0, attempts=1),
            None,
            LeafOutcome(shard_index=2, attempts=3, failed=True,
                        error="RuntimeError('x')"),
        ])
        assert "shard 0: ok" in text
        assert "shard 2: FAILED" in text
        assert describe_outcomes([None]) == "(no shards executed)"


@pytest.fixture(scope="module")
def documents():
    return synthetic_documents(num_docs=600, seed=13)


def _run_all(cluster, k=10):
    return [cluster.search(expr, k=k) for expr in QUERIES]


class TestClusterFaultMatrix:
    """Seeded end-to-end scenarios over real sharded clusters."""

    def test_transient_faults_healed_by_retries(self, documents):
        faults = FaultConfig(seed=2, transient_failure_probability=0.5)
        policy = ResiliencePolicy(max_retries=2, allow_degraded=True)

        def run():
            cluster, _ = make_faulty_cluster(
                documents, 3, faults=faults, policy=policy
            )
            results = _run_all(cluster)
            return (
                [hits_as_pairs(r) for r in results],
                sum(r.leaf_retries for r in results),
                [r.shards_failed for r in results],
            )

        hits_a, retries_a, failed_a = run()
        hits_b, retries_b, failed_b = run()
        # The schedule actually fired, every query healed, and the whole
        # run replays identically.
        assert retries_a > 0
        assert all(f == [] for f in failed_a)
        assert (hits_a, retries_a, failed_a) == (hits_b, retries_b, failed_b)

    def test_retries_restore_zero_fault_results(self, documents):
        faults = FaultConfig(seed=2, transient_failure_probability=0.5)
        policy = ResiliencePolicy(max_retries=2, allow_degraded=True)
        faulted, _ = make_faulty_cluster(documents, 3, faults=faults,
                                         policy=policy)
        clean, _ = make_faulty_cluster(documents, 3)
        for expr in QUERIES:
            assert hits_as_pairs(faulted.search(expr, k=10)) == \
                hits_as_pairs(clean.search(expr, k=10))

    def test_permanent_death_degrades_deterministically(self, documents):
        faults = [
            FaultConfig(seed=2, permanent_failure_after=0),
            ZERO_FAULTS,
            ZERO_FAULTS,
        ]
        policy = ResiliencePolicy(max_retries=1, allow_degraded=True)

        def run():
            cluster, _ = make_faulty_cluster(
                documents, 3, faults=faults, policy=policy
            )
            results = _run_all(cluster)
            return results, [hits_as_pairs(r) for r in results]

        results_a, hits_a = run()
        _results_b, hits_b = run()
        for result in results_a:
            assert result.degraded
            assert result.shards_failed == [0]
            assert result.leaf_results[0] is None
            assert result.hits  # surviving shards still answer
        assert hits_a == hits_b

    def test_degraded_hits_are_survivor_subset(self, documents):
        faults = [FaultConfig(permanent_failure_after=0), ZERO_FAULTS,
                  ZERO_FAULTS]
        policy = ResiliencePolicy(allow_degraded=True)
        degraded_cluster, sharded = make_faulty_cluster(
            documents, 3, faults=faults, policy=policy
        )
        clean, _ = make_faulty_cluster(documents, 3)
        boundaries = sharded.boundaries
        for expr in QUERIES:
            degraded = degraded_cluster.search(expr, k=10)
            full = clean.search(expr, k=10)
            # No hit from the dead shard's docID interval...
            assert all(
                not (boundaries[0] <= h.doc_id < boundaries[1])
                for h in degraded.hits
            )
            # ...and the answer matches the clean top-k with shard 0's
            # documents filtered out.
            survivors = [
                (h.doc_id, round(h.score, 9)) for h in full.hits
                if not (boundaries[0] <= h.doc_id < boundaries[1])
            ]
            merged = hits_as_pairs(degraded)
            assert merged[:len(survivors)] == survivors[:len(merged)]

    def test_replica_failover_keeps_results_whole(self, documents):
        faults = [
            FaultConfig(permanent_failure_after=0), ZERO_FAULTS, ZERO_FAULTS,
        ]
        policy = ResiliencePolicy(max_retries=1, allow_degraded=True)
        cluster, _ = make_faulty_cluster(
            documents, 3, faults=faults, policy=policy,
            replication_factor=2, replica_faults=ZERO_FAULTS,
        )
        clean, _ = make_faulty_cluster(documents, 3)
        for expr in QUERIES:
            result = cluster.search(expr, k=10)
            assert not result.degraded
            assert hits_as_pairs(result) == \
                hits_as_pairs(clean.search(expr, k=10))
        assert sum(
            r.leaf_failovers for r in _run_all(cluster)
        ) > 0

    def test_corruption_immune_to_retry_cured_by_failover(self, documents):
        faults = FaultConfig(seed=6, corruption_probability=0.4)
        policy = ResiliencePolicy(max_retries=2, allow_degraded=True)
        unreplicated, _ = make_faulty_cluster(documents, 3, faults=faults,
                                              policy=policy)
        replicated, _ = make_faulty_cluster(
            documents, 3, faults=faults, policy=policy,
            replication_factor=2, replica_faults=ZERO_FAULTS,
        )
        degraded = [
            r for r in _run_all(unreplicated) if r.degraded
        ]
        assert degraded  # retries alone cannot cure bad bytes
        for result in _run_all(replicated):
            assert not result.degraded  # a healthy replica can

    def test_zero_k_refused_before_any_leaf_attempt(self):
        """A bad argument is the caller's error, not a leaf failure to
        retry on every shard and degrade around."""
        leaves = [ScriptedEngine(), ScriptedEngine()]
        cluster = SearchCluster(
            leaves, policy=ResiliencePolicy(allow_degraded=True))
        with pytest.raises(ConfigurationError,
                           match="k must be positive, got 0"):
            cluster.search('"t0"', k=0)
        assert [leaf.calls for leaf in leaves] == [0, 0]

    def test_strict_cluster_propagates_leaf_error(self, documents):
        faults = [FaultConfig(permanent_failure_after=0), ZERO_FAULTS,
                  ZERO_FAULTS]
        cluster, _ = make_faulty_cluster(documents, 3, faults=faults)
        with pytest.raises(LeafExecutionError) as exc:
            _run_all(cluster)
        assert exc.value.shard_index == 0

    def test_resilient_zero_fault_matches_strict(self, documents):
        policy = ResiliencePolicy(max_retries=2, timeout_seconds=30.0,
                                  allow_degraded=True)
        resilient, _ = make_faulty_cluster(documents, 3, policy=policy)
        strict, _ = make_faulty_cluster(documents, 3)
        for expr in QUERIES:
            a = resilient.search(expr, k=10)
            b = strict.search(expr, k=10)
            assert hits_as_pairs(a) == hits_as_pairs(b)
            assert a.traffic == b.traffic
            assert a.leaf_retries == a.leaf_timeouts == 0


class TestObservability:
    def test_resilience_events_published(self, documents):
        observer = RecordingObserver()
        faults = [FaultConfig(permanent_failure_after=0), ZERO_FAULTS,
                  ZERO_FAULTS]
        policy = ResiliencePolicy(max_retries=1, allow_degraded=True)
        cluster, _ = make_faulty_cluster(
            documents, 3, faults=faults, policy=policy
        )
        with observing(observer):
            result = cluster.search('"t0" OR "t1"', k=10)
        assert result.degraded
        events = observer.metrics.get("cluster.resilience_events")
        assert events.value(event="retry", shard="0") == 1
        assert events.value(event="shard_failed", shard="0") == 1
        assert observer.metrics.get(
            "cluster.degraded_queries"
        ).total() == 1
        assert observer.metrics.get(
            "cluster.shards_failed"
        ).total() == 1

    def test_null_observer_costs_nothing(self, documents):
        from repro.observability import NULL_OBSERVER, current_observer

        policy = ResiliencePolicy(max_retries=1, allow_degraded=True)
        cluster, _ = make_faulty_cluster(documents, 2, policy=policy)
        assert current_observer() is NULL_OBSERVER  # outside every scope
        result = cluster.search('"t0"', k=5)
        assert not result.degraded
