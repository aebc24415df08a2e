"""The per-stage busy-time breakdown of the BOSS pipeline, as
:func:`repro.observability.build_trace` reports it: one span per
module of Figure 4(b) plus the memory side, each span's duration that
stage's busy time under the timing model."""

import pytest

from repro.core import BossAccelerator, BossConfig
from repro.errors import ConfigurationError
from repro.observability import (
    STAGE_MEMORY,
    aggregate_stage_seconds,
    build_trace,
)
from repro.sim.timing import BossTimingModel, IIUTimingModel


def _stage_seconds(trace):
    return {span.name: span.seconds for span in trace.spans}


@pytest.fixture(scope="module")
def boss_results(small_index):
    engine = BossAccelerator(small_index, BossConfig(k=10))
    return [
        engine.search(q)
        for q in ('"t0"', '"t1" AND "t3"', '"t2" OR "t5"')
    ]


@pytest.fixture(scope="module")
def model():
    return BossTimingModel()


class TestPerQuery:
    def test_all_stages_present(self, model, boss_results):
        trace = build_trace(model, boss_results[0])
        expected = set(model.module_names) | {STAGE_MEMORY}
        assert set(_stage_seconds(trace)) == expected

    def test_critical_is_max_stage(self, model, boss_results):
        """The bottleneck is the busiest stage, and the pipelined
        latency the throughput model charges covers it."""
        for result in boss_results:
            trace = build_trace(model, result)
            stages = _stage_seconds(trace)
            assert stages[trace.bottleneck] == max(stages.values())
            assert trace.pipelined_seconds >= max(stages.values())

    def test_consistent_with_timing_model(self, model, boss_results):
        """The breakdown's compute stages reproduce compute_seconds."""
        for result in boss_results:
            stages = _stage_seconds(build_trace(model, result))
            compute_stages = {
                k: v for k, v in stages.items() if k != STAGE_MEMORY
            }
            expected = model.compute_seconds(result) - model.query_overhead
            assert max(compute_stages.values()) == pytest.approx(expected)

    def test_iiu_model_supported(self, small_index):
        from repro.baselines import IIUAccelerator, IIUConfig

        iiu = IIUAccelerator(small_index, IIUConfig(k=10))
        result = iiu.search('"t2" OR "t5"')
        trace = build_trace(IIUTimingModel(), result)
        assert trace.engine == "IIU"
        # IIU's top-k is ignored per the paper: zero busy time.
        assert _stage_seconds(trace)["top-k"] == 0.0


class TestBatch:
    def test_batch_sums_stages(self, model, boss_results):
        traces = [build_trace(model, r) for r in boss_results]
        totals = aggregate_stage_seconds(traces)
        for stage in totals:
            assert totals[stage] == pytest.approx(
                sum(_stage_seconds(t)[stage] for t in traces)
            )

    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            aggregate_stage_seconds([])
