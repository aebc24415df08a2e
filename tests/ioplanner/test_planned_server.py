"""Integration tests for PlannedQueryServer (repro.ioplanner.server).

Pins the PR's acceptance criteria: served rankings bit-identical with
the planner on or off (across codecs and over both an engine and a
cluster target), full determinism of the virtual timeline, traffic
conservation through the metrics registry, and tenant isolation under
an aggressor replaying at 10x its quota.
"""

import pytest

from repro.batch import run_query_batch
from repro.core import BossAccelerator, BossConfig
from repro.errors import ConfigurationError
from repro.faults import make_faulty_cluster
from repro.ioplanner import (
    PlannedQueryServer,
    PlannerConfig,
    TenantSpec,
)
from repro.observability import RecordingObserver
from repro.serving import Request, TraceArrivals, zipf_workload
from repro.workloads import synthetic_documents

from tests.conftest import build_random_index, hits_as_pairs

VOCAB = [f"t{i}" for i in range(40)]


@pytest.fixture(scope="module")
def index():
    return build_random_index(num_docs=400, seed=11)


def _engine(index):
    return BossAccelerator(index, BossConfig(k=10))


def _workload(num=48, rate=2000.0, seed=3, tenants=None):
    return zipf_workload(VOCAB, num, rate_qps=rate, seed=seed,
                         tenants=tenants)


class TestConfig:
    def test_bad_values_rejected(self):
        with pytest.raises(ConfigurationError):
            PlannerConfig(window_seconds=0.0)
        with pytest.raises(ConfigurationError):
            PlannerConfig(workers=0)
        with pytest.raises(ConfigurationError):
            PlannerConfig(queue_capacity=0)
        with pytest.raises(ConfigurationError):
            PlannerConfig(deadline_seconds=0.0)

    def test_empty_workload_rejected(self, index):
        with pytest.raises(ConfigurationError):
            PlannedQueryServer(_engine(index)).serve([])

    def test_unknown_tenant_rejected(self, index):
        config = PlannerConfig(k=10, tenants=(TenantSpec("a", 1000),))
        server = PlannedQueryServer(_engine(index), config)
        with pytest.raises(ConfigurationError):
            server.serve([Request(0, 0.0, '"t0"', tenant="ghost")])


class TestBitIdentity:
    """The planner re-routes traffic; it must never change rankings."""

    def _rankings(self, target, requests, enabled):
        config = PlannerConfig(k=10, enabled=enabled)
        result = PlannedQueryServer(target, config).serve(requests)
        assert result.report.shed == 0
        return [hits_as_pairs(r) for r in result.served_results()]

    def test_on_off_identical_on_an_engine(self, index):
        requests = _workload()
        on = self._rankings(_engine(index), requests, True)
        off = self._rankings(_engine(index), requests, False)
        assert on == off

    def test_matches_the_unplanned_batch_driver(self, index):
        requests = _workload()
        on = self._rankings(_engine(index), requests, True)
        batch = run_query_batch(_engine(index),
                                [r.expression for r in requests], k=10)
        assert on == [hits_as_pairs(r) for r in batch.results]

    @pytest.mark.parametrize("scheme", ["BP", "VB", "OptPFD"])
    def test_on_off_identical_per_codec(self, scheme):
        codec_index = build_random_index(num_docs=300, vocab_size=20,
                                         seed=77, schemes=[scheme])
        vocab = sorted({t for t in codec_index})
        requests = zipf_workload(vocab, 24, rate_qps=2000.0, seed=5)
        on = self._rankings(
            BossAccelerator(codec_index, BossConfig(k=10)), requests,
            True)
        off = self._rankings(
            BossAccelerator(codec_index, BossConfig(k=10)), requests,
            False)
        assert on == off

    def test_on_off_identical_on_a_cluster(self):
        documents = synthetic_documents(num_docs=400, seed=5)
        vocab = [f"t{i}" for i in range(10)]
        requests = zipf_workload(vocab, 24, rate_qps=1500.0, seed=8)
        on_cluster, _ = make_faulty_cluster(documents, 3, k=10)
        off_cluster, _ = make_faulty_cluster(documents, 3, k=10)
        on = self._rankings(on_cluster, requests, True)
        off = self._rankings(off_cluster, requests, False)
        assert on == off
        # The cluster's shards contributed real block demand.
        config = PlannerConfig(k=10)
        replay, _ = make_faulty_cluster(documents, 3, k=10)
        planned = PlannedQueryServer(replay, config).serve(requests)
        assert planned.planner.demand_bytes > 0


class TestDeterminismAndAccounting:
    def test_run_is_deterministic(self, index):
        def run():
            result = PlannedQueryServer(
                _engine(index), PlannerConfig(k=10),
            ).serve(_workload(num=64, rate=4000.0, seed=9))
            decisions = [
                (o.request_id, o.status, o.start_seconds,
                 o.completion_seconds)
                for o in result
            ]
            return decisions, result.planner.to_dict()

        assert run() == run()

    def test_conservation_via_the_registry(self, index):
        observer = RecordingObserver()
        server = PlannedQueryServer(_engine(index), PlannerConfig(k=10),
                                    observer=observer)
        result = server.serve(_workload())
        planner = result.planner
        planner.check_conservation()
        metrics = observer.metrics
        # Routed bytes across all sources == demanded bytes, exactly.
        assert metrics.get("planner.bytes").total() == \
            metrics.get("planner.demand_bytes").total() == \
            planner.demand_bytes
        assert metrics.get("planner.windows").total() == planner.windows
        tenant_total = metrics.get("planner.tenant_bytes").total()
        assert tenant_total == planner.demand_bytes

    def test_planner_off_run_conserves_too(self, index):
        result = PlannedQueryServer(
            _engine(index), PlannerConfig(k=10, enabled=False),
        ).serve(_workload())
        result.planner.check_conservation()
        assert result.planner.dram_hit_bytes == 0
        assert result.planner.dedup_bytes == 0

    def test_skewed_log_mostly_stages_in_dram(self, index):
        # A Zipf log re-reads hot blocks: dedup + tier must absorb a
        # large share of demand, and prefetch should have staged blocks.
        result = PlannedQueryServer(
            _engine(index), PlannerConfig(k=10),
        ).serve(_workload(num=96, rate=8000.0, seed=2))
        assert result.planner.staged_fraction > 0.5
        assert result.planner.prefetch_blocks > 0

    def test_planning_halves_random_scm_bytes_and_lowers_p99(self):
        # The planner's two claims, on a Zipf log over a skewed corpus
        # offered past the planner-off knee: at most half the random
        # SCM bytes of the planner-off run, and a lower p99. The whole
        # comparison runs on the virtual timeline with no shedding, so
        # it measures routing alone and repeats exactly.
        from repro.workloads import make_corpus

        corpus = make_corpus("ccnews-like", scale=0.08, seed=17)
        vocab = corpus.terms_by_df()

        def run(enabled, rate, window_seconds):
            config = PlannerConfig(
                k=10, enabled=enabled, window_seconds=window_seconds,
                dram_bytes=16 << 20, queue_capacity=1 << 20)
            result = PlannedQueryServer(
                _engine(corpus.index), config,
            ).serve(zipf_workload(vocab, 160, rate_qps=rate,
                                  unique_queries=24, seed=17))
            assert result.report.shed == 0
            return result

        # Planner-off capacity from a burst probe: workers over the
        # mean modeled fetch time; windows sized to ~32 arrivals so
        # the planner has batches to plan.
        burst = run(False, 1e9, 0.002)
        busy = sum(o.completion_seconds - o.start_seconds for o in burst)
        rate = 1.25 * PlannerConfig().workers / (busy / len(burst))
        off = run(False, rate, 32 / rate)
        on = run(True, rate, 32 / rate)
        assert 0 < on.planner.scm_rand_bytes <= (
            0.5 * off.planner.scm_rand_bytes)
        assert (on.report.p99_latency_seconds
                < off.report.p99_latency_seconds)

    def test_queue_capacity_sheds_per_tenant(self, index):
        # One-window burst far past the backlog bound: the overflowing
        # tenant sheds, accounting stays conserved.
        times = [0.0] * 40
        requests = [
            Request(i, times[i], '"t0"') for i in range(len(times))
        ]
        config = PlannerConfig(k=10, queue_capacity=8)
        result = PlannedQueryServer(_engine(index), config).serve(requests)
        report = result.report
        assert report.shed == len(times) - 8
        assert report.served + report.shed == report.num_requests
        assert result.planner.tenant_shed == {"default": report.shed}


def _demand_per_query(index, expression):
    """Measured block-demand bytes of one query on this index."""
    result = PlannedQueryServer(
        _engine(index), PlannerConfig(k=10, enabled=False),
    ).serve([Request(0, 0.0, expression)])
    return result.planner.demand_bytes


class TestTenantIsolation:
    """An aggressor at 10x its quota cannot ruin a compliant tenant.

    Quotas are calibrated from the measured per-query demand, so the
    scenario stays meaningful if codecs or the corpus change: the
    compliant tenant offers well under its quota, the aggressor offers
    10x its quota every window. Everything runs on the virtual
    timeline — the test is exactly reproducible.
    """

    WINDOW = 0.002
    GOOD_EXPR = '"t5"'
    EVIL_EXPR = '"t0" OR "t1" OR "t2"'

    def _config(self, index):
        good_demand = _demand_per_query(index, self.GOOD_EXPR)
        evil_demand = _demand_per_query(index, self.EVIL_EXPR)
        # Compliant: one query every 25 windows, quota of one query per
        # window -> 25x headroom. Aggressor: one query per window,
        # quota a tenth of that -> a sustained 10x overdraw.
        tenants = (
            TenantSpec("good", max(1, good_demand)),
            TenantSpec("evil", max(1, evil_demand // 10)),
        )
        return PlannerConfig(
            window_seconds=self.WINDOW, k=10, workers=2,
            queue_capacity=512, tenants=tenants,
        )

    def _compliant_requests(self):
        times = [0.01 + 25 * self.WINDOW * i for i in range(20)]
        return [
            Request(i, t, self.GOOD_EXPR, tenant="good")
            for i, t in enumerate(times)
        ]

    def _aggressor_requests(self):
        times = [0.01 + self.WINDOW * i for i in range(200)]
        return [
            Request(1000 + i, t, self.EVIL_EXPR, tenant="evil")
            for i, t in enumerate(times)
        ]

    def test_compliant_p99_survives_the_aggressor(self, index):
        config = self._config(index)
        solo = PlannedQueryServer(_engine(index), config).serve(
            self._compliant_requests()
        )
        assert solo.report.shed == 0
        solo_p99 = solo.report.p99_latency_seconds

        mixed = PlannedQueryServer(_engine(index), config).serve(
            self._compliant_requests() + self._aggressor_requests()
        )
        good = [o for o in mixed if o.request_id < 1000 and o.served]
        assert len(good) == 20  # the compliant tenant lost nothing
        ordered = sorted(o.latency_seconds for o in good)
        good_p99 = ordered[max(0, int(0.99 * len(ordered)) - 1)]
        assert good_p99 <= 1.5 * solo_p99 + 1e-12

        # The aggressor genuinely overdrew and was throttled against
        # its own backlog, not the compliant tenant's.
        evil = [o for o in mixed if o.request_id >= 1000 and o.served]
        assert evil  # quota shapes, it does not starve
        assert max(o.latency_seconds for o in evil) > 10 * self.WINDOW
        assert mixed.planner.tenant_bytes["evil"] > 0
