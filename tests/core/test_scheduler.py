"""Tests for the command-queue / query-scheduler model."""

import pytest

from repro.core import BossAccelerator, BossConfig
from repro.core.scheduler import QueryScheduler
from repro.errors import ConfigurationError
from repro.sim.timing import BossTimingModel

QUERIES = [
    '"t0"',
    '"t1" AND "t3"',
    '"t2" OR "t5"',
    '"t1" OR "t4" OR "t7" OR "t9"',
    '"t0" AND ("t2" OR "t4" OR "t8")',
    '"t6"',
    '"t8" OR "t9"',
    '"t3" AND "t4"',
]


@pytest.fixture(scope="module")
def results(small_index):
    engine = BossAccelerator(small_index, BossConfig(k=10))
    return [engine.search(q) for q in QUERIES]


@pytest.fixture(scope="module")
def scheduler():
    return QueryScheduler(BossTimingModel(), num_cores=8)


class TestBatchRun:
    def test_all_queries_complete(self, scheduler, results):
        report = scheduler.run(results)
        assert len(report.completions) == len(results)
        indices = sorted(q.index for q in report.completions)
        assert indices == list(range(len(results)))

    def test_finish_after_start_after_arrival(self, scheduler, results):
        report = scheduler.run(results)
        for q in report.completions:
            assert q.arrival <= q.start <= q.finish
            assert q.latency >= 0
            assert q.start - q.arrival >= 0

    def test_makespan_is_last_finish(self, scheduler, results):
        report = scheduler.run(results)
        assert report.makespan == max(q.finish for q in report.completions)

    def test_core_capacity_never_exceeded(self, results):
        scheduler = QueryScheduler(BossTimingModel(), num_cores=2)
        report = scheduler.run(results)
        # At any point, the sum of cores of overlapping queries <= 2.
        events = sorted(
            [(q.start, q.cores) for q in report.completions]
            + [(q.finish, -q.cores) for q in report.completions]
        )
        in_use = 0
        for _t, delta in events:
            in_use += delta
            assert in_use <= 2

    def test_utilization_bounded(self, scheduler, results):
        report = scheduler.run(results)
        assert 0.0 < report.core_utilization <= 1.0

    def test_single_core_serializes(self, results):
        single = QueryScheduler(BossTimingModel(), num_cores=1)
        report = single.run(results)
        spans = sorted(
            (q.start, q.finish) for q in report.completions
        )
        for (s1, f1), (s2, _f2) in zip(spans, spans[1:]):
            assert s2 >= f1 - 1e-12

    def test_parallelism_helps_overall(self, results):
        """8 cores finish the batch no later than 1 core.

        (Intermediate core counts need not be strictly monotone: the
        bandwidth-contention factor is batch-global, so individual
        service times can stretch as parallelism rises.)
        """
        one = QueryScheduler(BossTimingModel(), 1).run(results)
        eight = QueryScheduler(BossTimingModel(), 8).run(results)
        assert eight.makespan <= one.makespan + 1e-12


class TestArrivals:
    def test_open_arrivals_spread_queueing(self, scheduler, results):
        fast = scheduler.run(results, arrival_rate=1e9)  # effectively batch
        slow = scheduler.run(results, arrival_rate=10.0)  # very sparse
        # With sparse arrivals nothing queues.
        assert all(q.start - q.arrival < 1e-9 for q in slow.completions)
        assert slow.max_queue_depth <= 1
        assert fast.max_queue_depth >= slow.max_queue_depth

    def test_invalid_arrival_rate(self, scheduler, results):
        with pytest.raises(ConfigurationError):
            scheduler.run(results, arrival_rate=0)


class TestReports:
    def test_percentiles_ordered(self, scheduler, results):
        report = scheduler.run(results)
        p50 = report.latency_percentile(50)
        p99 = report.latency_percentile(99)
        assert 0 < report.mean_latency
        assert p50 <= p99

    def test_percentile_bounds_checked(self, scheduler, results):
        report = scheduler.run(results)
        with pytest.raises(ConfigurationError):
            report.latency_percentile(101)

    def test_empty_batch_rejected(self, scheduler):
        with pytest.raises(ConfigurationError):
            scheduler.run([])

    def test_zero_cores_rejected(self):
        with pytest.raises(ConfigurationError):
            QueryScheduler(BossTimingModel(), num_cores=0)
