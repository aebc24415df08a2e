"""Tests for the admission-controlled query server (repro.serving.server).

Three layers: config validation, micro-scenarios with hand-built
arrival traces and a constant service-time model (pinning each
admission policy's exact shed decisions), and end-to-end runs over
real engines/clusters pinning the acceptance criteria — served results
bit-identical to ``run_query_batch``, full-run determinism given a
seed, and degraded-cluster accounting.
"""

import pytest

from repro.batch import run_query_batch
from repro.cluster.resilience import ResiliencePolicy
from repro.core import BossAccelerator, BossConfig
from repro.errors import ConfigurationError
from repro.faults import ZERO_FAULTS, FaultConfig, make_faulty_cluster
from repro.observability import NULL_OBSERVER, RecordingObserver
from repro.serving import (
    QueryServer,
    ServingConfig,
    TraceArrivals,
    build_requests,
    zipf_workload,
)
from repro.serving.server import SHED_DEADLINE, SHED_OLDEST, SHED_QUEUE_FULL
from repro.workloads import synthetic_documents

from tests.conftest import build_random_index, hits_as_pairs

VOCAB = [f"t{i}" for i in range(40)]


@pytest.fixture(scope="module")
def index():
    return build_random_index(num_docs=400, seed=11)


def _engine(index):
    return BossAccelerator(index, BossConfig(k=10))


def _constant(seconds):
    """A deterministic service-time model: every query takes the same."""
    return lambda request, result: seconds


def _trace_requests(times):
    """One '"t0"' query per arrival instant."""
    return build_requests(['"t0"'] * len(times), TraceArrivals(times))


class TestServingConfig:
    def test_defaults_valid(self):
        config = ServingConfig()
        assert config.workers >= 1
        assert config.admission == "reject"

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigurationError):
            ServingConfig(workers=0)
        with pytest.raises(ConfigurationError):
            ServingConfig(queue_capacity=-1)
        with pytest.raises(ConfigurationError):
            ServingConfig(admission="lifo")
        with pytest.raises(ConfigurationError):
            ServingConfig(deadline_seconds=0.0)

    def test_deadline_policy_needs_a_deadline(self):
        with pytest.raises(ConfigurationError):
            ServingConfig(admission="deadline")
        ServingConfig(admission="deadline", deadline_seconds=0.05)


class TestAdmissionPolicies:
    """Hand-built traces; one worker; service time 1.0s (modeled)."""

    def _serve(self, index, times, **config):
        config.setdefault("workers", 1)
        config.setdefault("k", 10)
        server = QueryServer(_engine(index), ServingConfig(**config),
                             service_time=_constant(1.0))
        return server.serve(_trace_requests(times))

    def test_reject_sheds_the_newcomer(self, index):
        result = self._serve(index, [0.0, 0.1, 0.2], queue_capacity=1,
                             admission="reject")
        statuses = [(o.status, o.shed_reason) for o in result]
        assert statuses == [("served", None), ("served", None),
                            ("shed", SHED_QUEUE_FULL)]

    def test_shed_oldest_keeps_the_newcomer(self, index):
        result = self._serve(index, [0.0, 0.1, 0.2], queue_capacity=1,
                             admission="shed-oldest")
        statuses = [(o.status, o.shed_reason) for o in result]
        # The queued (not the executing) request is the one displaced.
        assert statuses == [("served", None), ("shed", SHED_OLDEST),
                            ("served", None)]

    @pytest.mark.parametrize("admission,deadline", [
        ("reject", None), ("shed-oldest", None), ("deadline", 10.0),
    ])
    def test_zero_capacity_sheds_when_busy(self, index, admission,
                                           deadline):
        result = self._serve(index, [0.0, 0.1], queue_capacity=0,
                             admission=admission,
                             deadline_seconds=deadline)
        assert result[0].served
        assert result[1].shed_reason == SHED_QUEUE_FULL

    def test_deadline_evicts_expired_queued_work(self, index):
        # B queues at 0.01 and is already hopeless when C arrives at
        # 0.2 (deadline 0.15): B is evicted in C's favor. C itself is
        # then dropped at dispatch time — the worker only frees at 1.0.
        result = self._serve(index, [0.0, 0.01, 0.2], queue_capacity=1,
                             admission="deadline",
                             deadline_seconds=0.15)
        assert [o.shed_reason for o in result] == [
            None, SHED_DEADLINE, SHED_DEADLINE,
        ]
        assert result.report.shed_by_reason == {SHED_DEADLINE: 2}
        assert result[0].served and result[0].slo_attained is False

    def test_deadline_drops_expired_at_dispatch(self, index):
        # B waits behind a 1.0s query; by dispatch its 0.5s deadline
        # has passed, so the slot is not wasted executing it.
        result = self._serve(index, [0.0, 0.01], queue_capacity=4,
                             admission="deadline",
                             deadline_seconds=0.5)
        assert result[0].served
        assert result[1].shed_reason == SHED_DEADLINE
        assert result[1].start_seconds is None  # never executed


class TestSLOAccounting:
    def test_attained_vs_violated_on_total_latency(self, index):
        server = QueryServer(
            _engine(index),
            ServingConfig(workers=1, queue_capacity=8,
                          deadline_seconds=0.005, k=10),
            service_time=_constant(0.004),
        )
        result = server.serve(_trace_requests([0.0, 0.0, 0.0]))
        assert [o.slo_attained for o in result] == [True, False, False]
        report = result.report
        assert (report.slo_attained, report.slo_violated) == (1, 2)
        assert report.slo_violation_fraction == pytest.approx(2 / 3)

    def test_no_deadline_means_no_slo_classification(self, index):
        server = QueryServer(_engine(index),
                             ServingConfig(workers=1, k=10),
                             service_time=_constant(0.001))
        result = server.serve(_trace_requests([0.0, 0.1]))
        assert all(o.slo_attained is None for o in result)
        assert result.report.slo_attained == 0
        assert result.report.slo_violated == 0

    def test_shed_counts_against_the_slo(self, index):
        server = QueryServer(
            _engine(index),
            ServingConfig(workers=1, queue_capacity=0,
                          deadline_seconds=5.0, k=10),
            service_time=_constant(1.0),
        )
        result = server.serve(_trace_requests([0.0, 0.1]))
        assert result.report.slo_violation_fraction == pytest.approx(0.5)


class TestServingMechanics:
    def test_empty_workload_rejected(self, index):
        with pytest.raises(ConfigurationError):
            QueryServer(_engine(index)).serve([])

    def test_input_order_does_not_matter(self, index):
        requests = zipf_workload(VOCAB, 16, rate_qps=100.0, seed=2)
        server = QueryServer(_engine(index),
                             ServingConfig(workers=2, k=10),
                             service_time=_constant(0.001))
        forward = server.serve(requests)
        backward = server.serve(list(reversed(requests)))
        assert ([o.request_id for o in forward]
                == [o.request_id for o in backward]
                == [r.request_id for r in requests])

    def test_timeline_is_queued_behind_one_worker(self, index):
        server = QueryServer(_engine(index),
                             ServingConfig(workers=1, queue_capacity=8,
                                           k=10),
                             service_time=_constant(0.01))
        result = server.serve(_trace_requests([0.0, 0.0, 0.0]))
        assert [o.start_seconds for o in result] == [
            pytest.approx(0.0), pytest.approx(0.01), pytest.approx(0.02),
        ]
        assert [o.queue_wait_seconds for o in result] == [
            pytest.approx(0.0), pytest.approx(0.01), pytest.approx(0.02),
        ]
        assert result.report.max_queue_depth == 2

    def test_parallel_workers_absorb_the_burst(self, index):
        server = QueryServer(_engine(index),
                             ServingConfig(workers=3, queue_capacity=8,
                                           k=10),
                             service_time=_constant(0.01))
        result = server.serve(_trace_requests([0.0, 0.0, 0.0]))
        assert all(o.queue_wait_seconds == 0.0 for o in result)
        assert result.report.max_queue_depth == 0

    def test_all_shed_run_keeps_its_timeline_span(self):
        # Regression: with zero served requests the report used to
        # claim a 0.0s makespan — the timeline still spanned first to
        # last arrival. (QueryServer itself always serves the first
        # arrival; admission layers that can shed everything, like the
        # planner's tenant quotas, build their reports through this.)
        from repro.serving.server import RequestOutcome, \
            build_serving_report

        outcomes = [
            RequestOutcome(request_id=i, expression='"t0"',
                           arrival_seconds=float(i) * 5.0,
                           status="shed", shed_reason=SHED_QUEUE_FULL)
            for i in range(3)
        ]
        report = build_serving_report(outcomes, depth_samples=[0, 0, 0],
                                      max_depth=0)
        assert report.served == 0 and report.shed == 3
        assert report.makespan_seconds == pytest.approx(10.0)
        assert report.offered_seconds == pytest.approx(10.0)
        assert report.achieved_qps == 0.0

    def test_makespan_still_ends_at_the_last_completion(self, index):
        # When the final event is a completion (the common case), the
        # fix must not change the answer.
        server = QueryServer(_engine(index),
                             ServingConfig(workers=1, queue_capacity=8,
                                           k=10),
                             service_time=_constant(1.0))
        report = server.serve(_trace_requests([0.0, 0.1])).report
        assert report.makespan_seconds == pytest.approx(2.0)

    def test_queue_depth_sampled_at_completions_too(self, index):
        # Regression: depth was sampled only at arrivals, so the drain
        # side of the run never contributed. Three simultaneous
        # arrivals behind one worker: arrival samples [0, 1, 2],
        # completion samples [1, 0, 0] -> mean 4/6.
        server = QueryServer(_engine(index),
                             ServingConfig(workers=1, queue_capacity=8,
                                           k=10),
                             service_time=_constant(1.0))
        report = server.serve(_trace_requests([0.0, 0.0, 0.0])).report
        assert report.mean_queue_depth == pytest.approx(4 / 6)
        assert report.max_queue_depth == 2

    def test_report_conservation_invariants(self, index):
        requests = zipf_workload(VOCAB, 80, rate_qps=3000.0, seed=6)
        server = QueryServer(
            _engine(index),
            ServingConfig(workers=2, queue_capacity=2, k=10),
            service_time=_constant(0.005),
        )
        report = server.serve(requests).report
        assert report.served + report.shed == report.num_requests == 80
        assert sum(report.shed_by_reason.values()) == report.shed
        assert report.shed > 0  # the scenario is genuinely overloaded
        payload = report.to_dict()
        assert payload["served"] == report.served
        assert payload["shed_fraction"] == pytest.approx(
            report.shed / 80
        )


class TestAcceptance:
    """The ISSUE's pinned criteria: bit-identity and determinism."""

    def test_served_results_match_run_query_batch(self, index):
        # Below the knee with shedding impossible, serving is just a
        # scheduling discipline: results must be bit-identical to the
        # closed-loop batch driver on the same expressions.
        requests = zipf_workload(VOCAB, 48, rate_qps=200.0, seed=3)
        server = QueryServer(
            _engine(index),
            ServingConfig(workers=4, queue_capacity=len(requests), k=10),
        )
        served = server.serve(requests)
        assert served.report.shed == 0
        batch = run_query_batch(_engine(index),
                                [r.expression for r in requests], k=10)
        assert (
            [hits_as_pairs(r) for r in served.served_results()]
            == [hits_as_pairs(r) for r in batch.results]
        )

    def test_served_results_match_batch_on_a_cluster(self):
        documents = synthetic_documents(num_docs=400, seed=5)
        vocab = [f"t{i}" for i in range(10)]
        requests = zipf_workload(vocab, 24, rate_qps=150.0, seed=8)
        expressions = [r.expression for r in requests]

        serve_cluster, _ = make_faulty_cluster(documents, 3, k=10)
        batch_cluster, _ = make_faulty_cluster(documents, 3, k=10)
        server = QueryServer(
            serve_cluster,
            ServingConfig(workers=2, queue_capacity=len(requests), k=10),
        )
        served = server.serve(requests)
        assert served.report.shed == 0
        batch = run_query_batch(batch_cluster, expressions, k=10)
        assert (
            [hits_as_pairs(r) for r in served.served_results()]
            == [hits_as_pairs(r) for r in batch.results]
        )

    def test_run_is_deterministic_given_seed(self, index):
        def run():
            requests = zipf_workload(VOCAB, 96, rate_qps=2000.0, seed=9)
            server = QueryServer(
                _engine(index),
                ServingConfig(workers=2, queue_capacity=4,
                              deadline_seconds=0.01, k=10),
                service_time=_constant(0.004),
            )
            result = server.serve(requests)
            decisions = [
                (o.request_id, o.status, o.shed_reason, o.slo_attained,
                 o.start_seconds, o.completion_seconds)
                for o in result
            ]
            return decisions, result.report.to_dict()

        first, second = run(), run()
        assert first == second
        # The run exercised both shedding and SLO classification.
        assert any(o[1] == "shed" for o in first[0])
        assert any(o[3] is False for o in first[0])

    def test_degraded_cluster_serves_degraded_results(self):
        documents = synthetic_documents(num_docs=300, seed=9)
        faults = [FaultConfig(permanent_failure_after=0), ZERO_FAULTS,
                  ZERO_FAULTS]
        policy = ResiliencePolicy(max_retries=1, allow_degraded=True)
        cluster, _ = make_faulty_cluster(documents, 3, faults=faults,
                                         policy=policy, k=10)
        requests = zipf_workload([f"t{i}" for i in range(8)], 12,
                                 rate_qps=100.0, seed=3)
        server = QueryServer(cluster,
                             ServingConfig(workers=2, queue_capacity=16,
                                           k=10))
        result = server.serve(requests)
        report = result.report
        assert report.shed == 0
        assert all(o.degraded for o in result)
        assert report.served_degraded == report.served == 12


class TestObservability:
    def test_disabled_observer_is_dropped(self, index):
        server = QueryServer(_engine(index), observer=NULL_OBSERVER)
        assert server._observer is NULL_OBSERVER  # held as given

    def test_serving_metrics_published(self, index):
        observer = RecordingObserver()
        requests = zipf_workload(VOCAB, 40, rate_qps=3000.0, seed=6)
        server = QueryServer(
            _engine(index),
            ServingConfig(workers=1, queue_capacity=2,
                          deadline_seconds=0.05, k=10),
            service_time=_constant(0.01),
            observer=observer,
        )
        report = server.serve(requests).report
        metrics = observer.metrics
        assert metrics.get("serving.admitted").total() == report.served
        assert metrics.get("serving.shed").total() == report.shed
        served = metrics.get("serving.served")
        assert served.total() == report.served
        assert served.value(slo="attained", degraded="false") == \
            report.slo_attained
        assert metrics.get("serving.runs").total() == 1
        assert metrics.get("serving.last_achieved_qps").value() == \
            pytest.approx(report.achieved_qps)
        assert metrics.get("serving.last_shed_fraction").value() == \
            pytest.approx(report.shed_fraction)
        assert metrics.get("serving.latency_us").count() == report.served
        assert metrics.get(
            "serving.queue_depth_max"
        ).value() == report.max_queue_depth
