"""Tests for the event-driven core simulator vs the analytic model."""

import pytest

from repro.core import BossAccelerator, BossConfig
from repro.sim.coresim import BossCoreSimulator
from repro.sim.timing import BossTimingModel

QUERIES = ['"t0"', '"t2" OR "t5"', '"t1" AND "t3"',
           '"t1" OR "t4" OR "t7" OR "t9"']


@pytest.fixture(scope="module")
def traced_runs(small_index):
    engine = BossAccelerator(small_index, BossConfig(k=10))
    runs = []
    for query in QUERIES:
        engine.fetch_log = []
        result = engine.search(query)
        runs.append((result, list(engine.fetch_log)))
    engine.fetch_log = None
    return runs


@pytest.fixture(scope="module")
def simulator():
    return BossCoreSimulator()


class TestEventSimulation:
    def test_reports_all_blocks(self, simulator, traced_runs):
        for result, log in traced_runs:
            report = simulator.simulate(result, log)
            assert report.blocks == len(log)

    def test_time_bounded_below_by_busy_max(self, simulator, traced_runs):
        """Simulated time can never beat the busiest resource."""
        for result, log in traced_runs:
            report = simulator.simulate(result, log)
            assert report.total_seconds >= report.analytic_bound_seconds

    def test_time_bounded_above_by_busy_sum(self, simulator, traced_runs):
        """Fully serialized execution is the worst case."""
        for result, log in traced_runs:
            report = simulator.simulate(result, log)
            assert report.total_seconds <= sum(
                report.busy_seconds.values()
            ) + 1e-15

    def test_pipeline_efficiency_reasonable(self, simulator, traced_runs):
        """The pipelining idealization of the analytic model holds to
        within a small factor on real block streams."""
        for result, log in traced_runs:
            report = simulator.simulate(result, log)
            if report.blocks >= 4:
                assert report.pipeline_efficiency > 0.3

    def test_empty_log(self, simulator, traced_runs):
        result, _log = traced_runs[0]
        report = simulator.simulate(result, [])
        assert report.total_seconds == 0.0
        assert report.blocks == 0

    def test_agrees_with_analytic_on_memory_bound_stream(self, small_index):
        """A slow device makes both models converge on memory time."""
        from repro.scm.device import MemoryDeviceModel

        slow = MemoryDeviceModel("slow", seq_read_bw=1e6,
                                 rand_read_bw=1e5, write_bw=1e5)
        engine = BossAccelerator(small_index, BossConfig(k=10))
        engine.fetch_log = []
        result = engine.search('"t2" OR "t5"')
        simulator = BossCoreSimulator(device=slow)
        report = simulator.simulate(result, engine.fetch_log)
        assert report.busy_seconds["memory"] == pytest.approx(
            report.analytic_bound_seconds
        )
        # Memory dominates so hard that pipelining hides everything else.
        assert report.pipeline_efficiency > 0.9

    def test_config_validation(self):
        """Table I has one source: the analytic model's constants."""
        simulator = BossCoreSimulator()
        assert simulator.clock_hz == BossTimingModel.clock_hz
        assert simulator.decode_values_per_cycle == (
            BossTimingModel.decode_values_per_cycle)
        assert simulator.num_lanes == BossTimingModel.decompression_modules


class TestCrossValidation:
    def test_event_sim_brackets_analytic_model(self, traced_runs):
        """The analytic per-query compute/memory bound and the event
        simulation agree within a factor of 3 on every traced query —
        the cross-validation that justifies using the fast analytic
        model for the figure benchmarks."""
        model = BossTimingModel()
        simulator = BossCoreSimulator()
        for result, log in traced_runs:
            if not log:
                continue
            event_seconds = simulator.simulate(result, log).total_seconds
            analytic_seconds = max(
                model.compute_seconds(result) - model.query_overhead,
                model.memory_seconds(result),
            )
            assert event_seconds <= 3.0 * analytic_seconds
            assert analytic_seconds <= 3.0 * event_seconds
