"""Tests for the batched parallel query driver (:mod:`repro.batch`)."""

import os
import signal
import time

import pytest

from repro.batch import BatchReport, run_query_batch
from repro.cluster import SearchCluster, shard_documents
from repro.core import BossAccelerator, BossConfig
from repro.errors import BatchWorkerError, ConfigurationError
from tests.conftest import build_random_index, hits_as_pairs
from tests.test_differential import _random_documents, _random_queries


@pytest.fixture(scope="module")
def engine():
    return BossAccelerator(build_random_index(num_docs=800, vocab_size=25,
                                              seed=21),
                           BossConfig(k=10))


@pytest.fixture(scope="module")
def queries(engine):
    return _random_queries(sorted(engine.index), 47, count=16)


class TestEngineBatch:
    def test_batch_matches_serial(self, engine, queries):
        batch = run_query_batch(engine, queries, k=10, workers=4)
        serial = [engine.search(q, k=10) for q in queries]
        assert len(batch.results) == len(queries)
        for batched, expected in zip(batch.results, serial):
            assert hits_as_pairs(batched) == hits_as_pairs(expected)
            assert batched.work == expected.work
            assert batched.traffic == expected.traffic

    def test_worker_counts_agree(self, engine, queries):
        one = run_query_batch(engine, queries, k=10, workers=1)
        many = run_query_batch(engine, queries, k=10, workers=6)
        for a, b in zip(one.results, many.results):
            assert hits_as_pairs(a) == hits_as_pairs(b)

    def test_report_sanity(self, engine, queries):
        batch = run_query_batch(engine, queries, k=10, workers=2)
        report = batch.report
        assert isinstance(report, BatchReport)
        assert report.num_queries == len(queries)
        assert report.workers == 2
        assert report.wall_seconds > 0
        assert report.queries_per_second > 0
        assert len(report.per_query_seconds) == len(queries)
        assert report.p50_seconds <= report.p95_seconds
        assert report.p95_seconds <= max(report.per_query_seconds)
        payload = report.to_dict()
        assert payload["num_queries"] == len(queries)
        assert payload["p50_seconds"] == report.p50_seconds

    def test_engine_report_counts_no_degraded_queries(self, engine,
                                                      queries):
        report = run_query_batch(engine, queries, k=10, workers=2).report
        assert report.queries_degraded == 0
        assert report.degraded_fraction == 0.0
        assert len(report.per_query_seconds) == len(queries)
        assert all(seconds > 0 for seconds in report.per_query_seconds)

    def test_empty_batch_rejected(self, engine):
        with pytest.raises(ConfigurationError):
            run_query_batch(engine, [])

    def test_bad_worker_count_rejected(self, engine, queries):
        with pytest.raises(ConfigurationError):
            run_query_batch(engine, queries, workers=0)

    def test_batch_result_is_sequence_like(self, engine, queries):
        batch = run_query_batch(engine, queries[:4], k=10, workers=2)
        assert len(batch) == 4
        assert list(iter(batch)) == batch.results
        assert batch[0] is batch.results[0]

    def test_recording_scope_records_every_query_as_serial_does(
            self, engine, queries):
        from repro.core.engine import recording_fetches

        with recording_fetches() as serial:
            for query in queries:
                engine.search(query, k=10)
        with recording_fetches() as batched:
            batch = run_query_batch(engine, queries, k=10, workers=2)
        assert batch.report.workers == 1  # one process records them all
        assert batched == serial
        assert sum(len(records) for records in batched.values()) > 0

    def test_enabled_observer_serializes_deterministically(self):
        from repro.observability import RecordingObserver, observing

        index = build_random_index(num_docs=400, vocab_size=15, seed=9)
        queries = _random_queries(sorted(index), 8, count=6)
        observer = RecordingObserver()
        engine = BossAccelerator(index, BossConfig(k=10))
        with observing(observer):
            batch = run_query_batch(engine, queries, k=10, workers=4)
        assert batch.report.workers == 1  # dropped to serial for traces
        assert len(observer.traces) == len(queries)
        assert [t.expression for t in observer.traces] == [
            str(r.query) for r in batch.results
        ]


class TestClusterBatch:
    @pytest.fixture(scope="class")
    def cluster(self):
        documents = _random_documents(num_docs=700, vocab=22, seed=33)
        sharded = shard_documents(documents, num_shards=4)
        return SearchCluster([
            BossAccelerator(index, BossConfig(k=15))
            for index in sharded.indexes
        ])

    @pytest.fixture(scope="class")
    def cluster_queries(self):
        return _random_queries([f"t{i}" for i in range(12)], 61, count=12)

    def test_cluster_batch_matches_serial(self, cluster, cluster_queries):
        batch = run_query_batch(cluster, cluster_queries, k=15, workers=4)
        serial = [cluster.search(q, k=15) for q in cluster_queries]
        for batched, expected in zip(batch.results, serial):
            assert hits_as_pairs(batched) == hits_as_pairs(expected)
            assert batched.traffic == expected.traffic
            assert batched.work == expected.work
            assert batched.merge_ops == expected.merge_ops
            assert batched.interconnect_bytes == expected.interconnect_bytes
            assert batched.shards_touched == expected.shards_touched

    def test_cluster_parallelism_is_deterministic(self, cluster,
                                                  cluster_queries):
        runs = [
            run_query_batch(cluster, cluster_queries, k=15, workers=w)
            for w in (1, 3, 8)
        ]
        baseline = [hits_as_pairs(r) for r in runs[0].results]
        for other in runs[1:]:
            assert [hits_as_pairs(r) for r in other.results] == baseline

    @pytest.mark.parametrize("workers", [1, 3, 8])
    def test_pooled_results_carry_everything_serial_ones_do(
            self, cluster, cluster_queries, workers):
        # One fan-out (SearchCluster.search) behind every worker count:
        # the merged result *and* what the harness reads under it —
        # per-leaf results and resilience outcomes — match serial.
        batch = run_query_batch(cluster, cluster_queries, k=15,
                                workers=workers)
        assert batch.report.workers == workers
        for query, batched in zip(cluster_queries, batch.results):
            expected = cluster.search(query, k=15)
            assert hits_as_pairs(batched) == hits_as_pairs(expected)
            assert batched.traffic == expected.traffic
            assert batched.work == expected.work
            assert batched.merge_ops == expected.merge_ops
            assert len(batched.leaf_results) == len(cluster.engines)
            for got, want in zip(batched.leaf_results,
                                 expected.leaf_results):
                assert (got is None) == (want is None)
                if got is not None:
                    assert hits_as_pairs(got) == hits_as_pairs(want)
                    assert got.traffic == want.traffic
                    assert got.work == want.work
            assert [
                o and (o.shard_index, o.attempts, o.retries, o.failovers)
                for o in batched.leaf_outcomes
            ] == [
                o and (o.shard_index, o.attempts, o.retries, o.failovers)
                for o in expected.leaf_outcomes
            ]

    def test_default_k_is_the_clusters_not_the_leaves(self, cluster,
                                                      cluster_queries):
        # Regression: cluster.search(q, k=None) used to return the
        # untruncated concatenation of each leaf's own default top-k
        # (at most 4 x 15 hits here) instead of the cluster default's
        # ranking; the batch driver now passes k=None straight through.
        batch = run_query_batch(cluster, cluster_queries, workers=3)
        for query, batched in zip(cluster_queries, batch.results):
            expected = cluster.search(query)
            assert hits_as_pairs(batched) == hits_as_pairs(expected)
            assert hits_as_pairs(cluster.search(query, k=None)) == (
                hits_as_pairs(expected))
        leaf_default_total = 15 * len(cluster.engines)
        assert any(len(r.hits) > leaf_default_total for r in batch.results)

    def test_cluster_report(self, cluster, cluster_queries):
        batch = run_query_batch(cluster, cluster_queries, k=15, workers=3)
        assert batch.report.num_queries == len(cluster_queries)
        assert all(s >= 0 for s in batch.report.per_query_seconds)


class FlakyEngine:
    """Counts calls; raises on the "boom" expression, dawdles otherwise.

    A forked worker counts in its own copy, so ``calls`` is what the
    calling process ran.
    """

    def __init__(self, delay=0.002):
        self.delay = delay
        self.calls = 0

    def search(self, expression, k=None):
        self.calls += 1
        if expression == "boom":
            raise RuntimeError("scripted engine failure")
        time.sleep(self.delay)
        return expression


class DyingEngine:
    """Kills the process it runs in on "die" — unless that process is
    the one that built it, so only a forked worker dies."""

    def __init__(self):
        self.home = os.getpid()

    def search(self, expression, k=None):
        if expression == "die" and os.getpid() != self.home:
            os.kill(os.getpid(), signal.SIGKILL)
        return expression


class Unbuildable(Exception):
    """Pickles, but cannot be rebuilt: ``args`` lacks ``detail``."""

    def __init__(self, message, detail):
        super().__init__(message)
        self.detail = detail


class RaisesUnbuildable:
    def search(self, expression, k=None):
        if expression == "odd":
            raise Unbuildable(expression, detail=1)
        return expression


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(autouse=True)
def no_worker_outlives_its_batch():
    # A driver waiting forever on a worker fails the test instead.
    def give_up(signum, frame):
        raise TimeoutError("batch did not finish in 60 s")

    previous = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert_no_child_left()


class TestEngineBatchFailure:
    def test_mid_collection_failure_cancels_queued_work(self):
        # The calling process's first query fails while dozens wait in
        # the other share: the driver must kill that worker rather than
        # grind through a batch whose result has been abandoned.
        engine = FlakyEngine(delay=0.01)
        queries = ["boom"] + [f"q{i}" for i in range(60)]
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="scripted engine"):
            run_query_batch(engine, queries, k=10, workers=2)
        # Draining the worker's 30 queries would take 0.3 s or more.
        assert time.perf_counter() - start < 0.2
        # The calling process ran its share's first query, and stopped.
        assert engine.calls == 1
        assert_no_child_left()

    def test_lowest_failing_query_is_raised(self):
        # Query 1 (the worker's share) fails before query 2 (the
        # caller's): the batch raises what a serial run raises.
        class FailsOn:
            def search(self, expression, k=None):
                if expression.startswith("bad"):
                    raise RuntimeError(expression)
                return expression

        queries = ["q0", "bad1", "bad2", "q3"]
        with pytest.raises(RuntimeError, match="bad1"):
            run_query_batch(FailsOn(), queries, workers=1)
        with pytest.raises(RuntimeError, match="bad1"):
            run_query_batch(FailsOn(), queries, workers=2)

    def test_worker_killed_mid_share_raises_naming_its_share(self):
        queries = ["q0", "q1", "q2", "die", "q4", "q5"]
        start = time.perf_counter()
        with pytest.raises(BatchWorkerError, match="share 1 ") as exc:
            run_query_batch(DyingEngine(), queries, workers=2)
        assert time.perf_counter() - start < 5.0
        # A worker sends its reports when its share is done: one killed
        # mid-share has sent none.
        assert "status -9 after reporting 0 of its 3" in str(exc.value)
        assert_no_child_left()

    def test_outcome_that_cannot_cross_is_a_typed_error(self):
        with pytest.raises(BatchWorkerError,
                           match="share 1: query 1's outcome"):
            run_query_batch(RaisesUnbuildable(), ["q0", "odd", "q2"],
                            workers=2)
        assert_no_child_left()

    def test_successful_batch_leaves_no_child(self, engine, queries):
        batch = run_query_batch(engine, queries, k=10, workers=3)
        assert batch.report.workers == 3
        assert_no_child_left()

    def test_serial_path_fails_fast_too(self):
        engine = FlakyEngine()
        with pytest.raises(RuntimeError):
            run_query_batch(engine, ["boom", "q1", "q2"], k=10, workers=1)
        assert engine.calls == 1

    def test_single_query_report_percentiles_collapse(self, engine):
        batch = run_query_batch(engine, ['"t0"'], k=10, workers=2)
        report = batch.report
        sample = report.per_query_seconds[0]
        assert report.num_queries == 1
        assert report.p50_seconds == sample
        assert report.p95_seconds == sample
        assert report.p99_seconds == sample


class TestPercentiles:
    def test_empty_sample_yields_zero(self):
        from repro.batch import percentile

        assert percentile([], 0.50) == 0.0
        assert percentile([], 0.99) == 0.0

    def test_empty_report_renders(self):
        report = BatchReport(num_queries=0, workers=1, wall_seconds=0.0,
                             per_query_seconds=[])
        assert report.p50_seconds == 0.0
        assert report.p99_seconds == 0.0
        assert report.degraded_fraction == 0.0
        assert report.to_dict()["p99_seconds"] == 0.0

    def test_percentiles_are_ordered(self):
        report = BatchReport(num_queries=100, workers=1, wall_seconds=1.0,
                             per_query_seconds=[i / 100 for i in range(100)])
        assert report.p50_seconds <= report.p95_seconds <= report.p99_seconds
        assert report.p99_seconds == 0.98  # nearest rank of 100 samples


class TestResilientClusterBatch:
    """The batch driver under injected faults (see tests/test_faults.py)."""

    QUERIES = ['"t0"', '"t1" AND "t3"', '"t2" OR "t5"',
               '"t1" OR "t4" OR "t7"']

    @pytest.fixture(scope="class")
    def documents(self):
        from repro.workloads import synthetic_documents

        return synthetic_documents(num_docs=500, seed=29)

    def test_degraded_queries_counted(self, documents):
        from repro.cluster.resilience import ResiliencePolicy
        from repro.faults import ZERO_FAULTS, FaultConfig, make_faulty_cluster

        faults = [FaultConfig(permanent_failure_after=0), ZERO_FAULTS,
                  ZERO_FAULTS]
        cluster, _ = make_faulty_cluster(
            documents, 3, faults=faults,
            policy=ResiliencePolicy(allow_degraded=True),
        )
        batch = run_query_batch(cluster, self.QUERIES, k=10, workers=4)
        assert batch.report.queries_degraded == len(self.QUERIES)
        assert batch.report.degraded_fraction == 1.0
        assert all(r.shards_failed == [0] for r in batch.results)

    def test_batch_matches_serial_under_faults(self, documents):
        from repro.cluster.resilience import ResiliencePolicy
        from repro.faults import FaultConfig, make_faulty_cluster

        faults = FaultConfig(seed=4, transient_failure_probability=0.5)
        policy = ResiliencePolicy(max_retries=2, allow_degraded=True)
        batched_cluster, _ = make_faulty_cluster(documents, 3,
                                                 faults=faults,
                                                 policy=policy)
        serial_cluster, _ = make_faulty_cluster(documents, 3,
                                                faults=faults,
                                                policy=policy)
        batch = run_query_batch(batched_cluster, self.QUERIES, k=10,
                                workers=4)
        serial = [serial_cluster.search(q, k=10) for q in self.QUERIES]
        for batched, expected in zip(batch.results, serial):
            assert hits_as_pairs(batched) == hits_as_pairs(expected)
            assert batched.leaf_retries == expected.leaf_retries
            assert batched.shards_failed == expected.shards_failed

    def test_degraded_count_matches_per_result_flags(self, documents):
        # Corruption is immune to retries, so with a seeded corruption
        # schedule only *some* queries degrade — the aggregate count
        # must equal the per-result flags exactly, not over- or
        # under-report.
        from repro.cluster.resilience import ResiliencePolicy
        from repro.faults import FaultConfig, make_faulty_cluster

        faults = FaultConfig(seed=6, corruption_probability=0.4)
        policy = ResiliencePolicy(max_retries=2, allow_degraded=True)
        cluster, _ = make_faulty_cluster(documents, 3, faults=faults,
                                         policy=policy)
        queries = self.QUERIES + ['"t6"', '"t2" AND "t4"', '"t0" OR "t3"']
        batch = run_query_batch(cluster, queries, k=10, workers=4)
        flagged = sum(1 for r in batch.results if r.degraded)
        assert batch.report.queries_degraded == flagged
        assert 0 < flagged < len(queries)

    def test_leaf_failure_aborts_with_named_query_and_shard(self,
                                                            documents):
        from repro.errors import LeafExecutionError
        from repro.faults import ZERO_FAULTS, FaultConfig, make_faulty_cluster

        faults = [ZERO_FAULTS, FaultConfig(permanent_failure_after=0),
                  ZERO_FAULTS]
        # Default policy: strict, failures propagate instead of degrading.
        cluster, _ = make_faulty_cluster(documents, 3, faults=faults)
        with pytest.raises(LeafExecutionError) as exc:
            run_query_batch(cluster, self.QUERIES, k=10, workers=4)
        assert exc.value.shard_index == 1
        assert exc.value.expression  # the failing query is named
        assert "shard 1" in str(exc.value)


    def test_leaf_failure_in_a_worker_keeps_attributes_and_cause(
            self, documents):
        # Shard 1 is dead for every sub-query naming t1, and the first
        # such query is query 1, in the forked worker's share: the
        # strict cluster's error crosses back whole, as serial raises it.
        from repro.errors import FaultInjectionError, LeafExecutionError

        class DeadForTerm:
            """A stateless dead leaf: a sub-query naming ``term`` fails."""

            def __init__(self, engine, term):
                self.engine = engine
                self.term = term

            @property
            def index(self):
                return self.engine.index

            def search(self, query, k=None):
                if f'"{self.term}"' in str(query):
                    raise FaultInjectionError(
                        f"leaf is dead for {self.term}", kind="permanent")
                return self.engine.search(query, k=k)

        engines = [BossAccelerator(index, BossConfig(k=10)) for index in
                   shard_documents(documents, num_shards=3).indexes]
        engines[1] = DeadForTerm(engines[1], "t1")
        cluster = SearchCluster(engines)
        assert not cluster.carries_search_state
        queries = ['"t0"', '"t1"', '"t2"', '"t0" OR "t3"']
        errors = []
        for workers in (1, 2):
            with pytest.raises(LeafExecutionError) as exc:
                run_query_batch(cluster, queries, k=10, workers=workers)
            errors.append(exc.value)
        serial, forked = errors
        assert (forked.shard_index, forked.expression, str(forked)) == (
            serial.shard_index, serial.expression, str(serial))
        assert forked.shard_index == 1 and forked.expression == '"t1"'
        assert isinstance(forked.__cause__, FaultInjectionError)
        assert forked.__cause__.kind == "permanent"
        assert str(forked.__cause__) == str(serial.__cause__)

    def test_stateful_fault_schedule_runs_in_one_process(self, documents):
        # Attempt counts per query key and the queries toward
        # permanent_failure_after carry from one search to the next, so
        # a forked share would diverge: the batch stays in one process
        # and every leaf's FaultStats end where serial's do.
        from repro.cluster.resilience import ResiliencePolicy
        from repro.faults import FaultConfig, make_faulty_cluster

        faults = FaultConfig(seed=4, transient_failure_probability=0.5,
                             permanent_failure_after=3)
        policy = ResiliencePolicy(max_retries=2, allow_degraded=True)
        batched_cluster, _ = make_faulty_cluster(documents, 3,
                                                 faults=faults,
                                                 policy=policy)
        serial_cluster, _ = make_faulty_cluster(documents, 3,
                                                faults=faults,
                                                policy=policy)
        assert batched_cluster.carries_search_state
        queries = self.QUERIES * 3  # every key repeats
        batch = run_query_batch(batched_cluster, queries, k=10, workers=2)
        serial = run_query_batch(serial_cluster, queries, k=10)
        assert batch.report.workers == 1
        for batched, expected in zip(batch.results, serial.results):
            assert hits_as_pairs(batched) == hits_as_pairs(expected)
            assert batched.leaf_retries == expected.leaf_retries
            assert batched.shards_failed == expected.shards_failed
        assert [leaf.stats for leaf in batched_cluster.engines] == [
            leaf.stats for leaf in serial_cluster.engines]
        assert any(leaf.stats.transient_failures
                   for leaf in serial_cluster.engines)
        assert any(r.degraded for r in serial.results)

    def test_zero_fault_cluster_carries_no_state(self, documents):
        from repro.faults import ZERO_FAULTS, make_faulty_cluster

        cluster, _ = make_faulty_cluster(documents, 3, faults=ZERO_FAULTS)
        assert not cluster.carries_search_state
        batch = run_query_batch(cluster, self.QUERIES, k=10, workers=2)
        assert batch.report.workers == 2


class TestSessionBatch:
    def test_search_batch_matches_search(self):
        from repro.api import BossSession

        index = build_random_index(num_docs=500, vocab_size=18, seed=55)
        session = BossSession(BossConfig(k=10))
        session.init(index)
        queries = _random_queries(sorted(index), 17, count=8)
        batch = session.search_batch(queries)
        serial = [session.search(q, k=10) for q in queries]
        for batched, expected in zip(batch.results, serial):
            assert hits_as_pairs(batched) == hits_as_pairs(expected)

    def test_session_report_matches_an_engines(self):
        from repro.api import BossSession

        index = build_random_index(num_docs=300, vocab_size=12, seed=8)
        session = BossSession(BossConfig(k=10))
        session.init(index)
        queries = _random_queries(sorted(index), 3, count=6)
        report = session.search_batch(queries).report
        assert report.queries_degraded == 0
        assert len(report.per_query_seconds) == len(queries)
        assert all(seconds > 0 for seconds in report.per_query_seconds)

    def test_search_batch_checks_arguments_up_front(self):
        from repro.api import BossSession
        from repro.errors import ReproError

        session = BossSession(BossConfig(k=10))
        session.init(build_random_index(num_docs=200, vocab_size=10,
                                        seed=5))
        # The bad second query fails the batch before anything executes.
        with pytest.raises(ReproError):
            session.search_batch(['"t0"', '"not-a-term"'])


class TestObservedBatchStaysSerial:
    """A forked worker would record into its own copy of the caller's
    observer, so inside an enabled scope every target's batch runs on
    one worker and returns the serial run's results."""

    @pytest.fixture(scope="class")
    def index(self):
        return build_random_index(num_docs=300, vocab_size=12, seed=8)

    def _target(self, kind, index):
        from repro.api import BossSession

        if kind == "engine":
            return BossAccelerator(index, BossConfig(k=10))
        if kind == "cluster":
            documents = _random_documents(num_docs=300, vocab=12, seed=9)
            return SearchCluster([
                BossAccelerator(shard, BossConfig(k=10))
                for shard in shard_documents(documents,
                                             num_shards=3).indexes
            ])
        session = BossSession(BossConfig(k=10))
        session.init(index)
        session.init_vectors()
        return session.hybrid()

    @pytest.mark.parametrize("kind", ["engine", "cluster", "hybrid"])
    def test_enabled_scope_runs_on_one_worker(self, index, kind):
        from repro.observability import RecordingObserver, observing

        queries = _random_queries([f"t{i}" for i in range(12)], 5, count=6)
        serial = run_query_batch(self._target(kind, index), queries, k=10)
        recording = RecordingObserver()
        with observing(recording):
            observed = run_query_batch(self._target(kind, index), queries,
                                       k=10, workers=4)
        assert observed.report.workers == 1
        assert [hits_as_pairs(r) for r in observed.results] == \
            [hits_as_pairs(r) for r in serial.results]
        assert recording.traces  # every layer recorded into the scope


class TestDefaultWorkers:
    """``workers=None`` is one worker for every target; more are opt-in."""

    @pytest.fixture(scope="class")
    def index(self):
        return build_random_index(num_docs=300, vocab_size=12, seed=8)

    @pytest.fixture(scope="class")
    def few_queries(self, index):
        return _random_queries(sorted(index), 3, count=4)

    def test_engine_defaults_to_one_worker(self, index, few_queries):
        engine = BossAccelerator(index, BossConfig(k=10))
        assert run_query_batch(engine, few_queries).report.workers == 1

    def test_session_defaults_to_one_worker(self, index, few_queries):
        from repro.api import BossSession

        session = BossSession(BossConfig(k=10))
        session.init(index)
        assert session.search_batch(few_queries).report.workers == 1

    def test_cluster_defaults_to_one_worker(self):
        documents = _random_documents(num_docs=300, vocab=12, seed=9)
        cluster = SearchCluster([
            BossAccelerator(shard, BossConfig(k=10))
            for shard in shard_documents(documents, num_shards=2).indexes
        ])
        queries = _random_queries([f"t{i}" for i in range(8)], 5, count=4)
        assert run_query_batch(cluster, queries).report.workers == 1

    def test_explicit_worker_count_is_honoured(self, index, few_queries):
        engine = BossAccelerator(index, BossConfig(k=10))
        report = run_query_batch(engine, few_queries, workers=3).report
        assert report.workers == 3


class TestOneServingSkeleton:
    """The planner's server is the plain server with another loop."""

    def test_planned_server_is_a_query_server_with_the_same_report(
            self, engine):
        from repro.ioplanner import PlannedQueryServer, PlannerConfig
        from repro.serving import QueryServer, ServingConfig, zipf_workload

        assert issubclass(PlannedQueryServer, QueryServer)
        assert PlannedQueryServer.serve is not QueryServer.serve
        requests = zipf_workload(sorted(engine.index)[:12], 40,
                                 rate_qps=2000.0, seed=3)
        plain = QueryServer(
            engine, ServingConfig(k=10, queue_capacity=64),
            service_time=lambda request, result: 1e-5,
        ).serve(requests)
        planned = PlannedQueryServer(
            engine, PlannerConfig(k=10)).serve(requests)
        assert plain.report.shed == planned.report.shed == 0
        assert planned.report.num_requests == plain.report.num_requests
        assert planned.report.offered_seconds == plain.report.offered_seconds
        assert [o.request_id for o in planned] == [
            o.request_id for o in plain]
        assert [hits_as_pairs(r) for r in planned.served_results()] == [
            hits_as_pairs(r) for r in plain.served_results()]
