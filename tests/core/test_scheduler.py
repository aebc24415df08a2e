"""Tests for the command-queue / query-scheduler model.

The device's one command queue is :class:`repro.serving.QueryServer`
with a request width: a query holds its cores (one per four BOSS
terms, chained, Fig. 4(a)) for its contended service time, dispatched
strictly first-come first-served — the way the ``latency`` figure
drives it.
"""

import pytest

from repro.core import BossAccelerator, BossConfig
from repro.errors import ConfigurationError
from repro.serving import (
    QueryServer, ServingConfig, TraceArrivals, build_requests)
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
    '"t0" OR "t2" OR "t4" OR "t6" OR "t8" OR "t9"',
]


@pytest.fixture(scope="module")
def engine(small_index):
    return BossAccelerator(small_index, BossConfig(k=10))


@pytest.fixture(scope="module")
def results(engine):
    return [engine.search(q) for q in QUERIES]


def _schedule(engine, results, num_cores=8, arrival_rate=None):
    """Serve the batch on ``num_cores`` cores; ``arrival_rate`` spaces
    arrivals uniformly, ``None`` is a closed batch at t=0.

    Returns the serving result and each query's core count.
    """
    model = BossTimingModel(num_cores=num_cores)
    service = model.contended_seconds(results)
    cores = [min(num_cores, model.cores_used(r)) for r in results]
    server = QueryServer(
        engine, ServingConfig(workers=num_cores,
                              queue_capacity=len(results)),
        service_time=lambda request, _: service[request.request_id],
        width=lambda request: cores[request.request_id])
    times = [0.0 if arrival_rate is None else i / arrival_rate
             for i in range(len(results))]
    requests = build_requests(QUERIES[:len(results)], TraceArrivals(times))
    return server.serve(requests), cores


class TestBatchRun:
    def test_all_queries_complete(self, engine, results):
        served, _cores = _schedule(engine, results)
        assert len(served) == len(results)
        assert all(o.served for o in served)
        assert [o.request_id for o in served] == list(
            range(len(results)))
        assert served.report.served == len(results)

    def test_finish_after_start_after_arrival(self, engine, results):
        served, _cores = _schedule(engine, results)
        for o in served:
            assert o.arrival_seconds <= o.start_seconds <= o.completion_seconds
            assert o.latency_seconds >= 0
            assert o.queue_wait_seconds >= 0

    def test_makespan_is_last_finish(self, engine, results):
        served, _cores = _schedule(engine, results)
        assert served.report.makespan_seconds == max(
            o.completion_seconds for o in served)

    def test_core_capacity_never_exceeded(self, engine, results):
        served, cores = _schedule(engine, results, num_cores=2)
        assert max(cores) == 2  # the six-term union chains two cores
        # At any point, the sum of cores of overlapping queries <= 2.
        events = sorted(
            [(o.start_seconds, c) for o, c in zip(served, cores)]
            + [(o.completion_seconds, -c) for o, c in zip(served, cores)]
        )
        in_use = 0
        for _t, delta in events:
            in_use += delta
            assert in_use <= 2

    def test_utilization_bounded(self, engine, results):
        served, cores = _schedule(engine, results)
        busy_core_seconds = sum(
            c * (o.completion_seconds - o.start_seconds)
            for o, c in zip(served, cores))
        utilization = busy_core_seconds / (
            served.report.makespan_seconds * 8)
        assert 0.0 < utilization <= 1.0

    def test_single_core_serializes(self, engine, results):
        served, _cores = _schedule(engine, results, num_cores=1)
        spans = sorted(
            (o.start_seconds, o.completion_seconds) for o in served
        )
        for (s1, f1), (s2, _f2) in zip(spans, spans[1:]):
            assert s2 >= f1 - 1e-12

    def test_parallelism_helps_overall(self, engine, results):
        """8 cores finish the batch no later than 1 core.

        (Intermediate core counts need not be strictly monotone: the
        bandwidth-contention factor is batch-global, so individual
        service times can stretch as parallelism rises.)
        """
        one, _ = _schedule(engine, results, num_cores=1)
        eight, _ = _schedule(engine, results, num_cores=8)
        assert (eight.report.makespan_seconds
                <= one.report.makespan_seconds + 1e-12)


class TestArrivals:
    def test_open_arrivals_spread_queueing(self, engine, results):
        fast, _ = _schedule(engine, results, arrival_rate=1e9)
        slow, _ = _schedule(engine, results, arrival_rate=10.0)
        # With sparse arrivals nothing queues.
        assert all(o.queue_wait_seconds < 1e-9 for o in slow)
        assert slow.report.max_queue_depth <= 1
        assert fast.report.max_queue_depth >= slow.report.max_queue_depth


class TestReports:
    def test_percentiles_ordered(self, engine, results):
        report = _schedule(engine, results)[0].report
        assert 0 < report.mean_latency_seconds
        assert report.p50_latency_seconds <= report.p99_latency_seconds

    def test_empty_batch_rejected(self, engine):
        with pytest.raises(ConfigurationError):
            _schedule(engine, [])

    def test_zero_cores_rejected(self):
        with pytest.raises(ConfigurationError):
            BossTimingModel(num_cores=0)
        with pytest.raises(ConfigurationError):
            ServingConfig(workers=0)
