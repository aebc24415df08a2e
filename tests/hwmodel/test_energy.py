"""Energy model tests (Figure 17)."""

import pytest

from repro.errors import ConfigurationError
from repro.hwmodel.energy import EnergyModel, EnergyReport
from repro.sim.timing import ThroughputReport


def _report(engine, seconds):
    return ThroughputReport(
        engine=engine, num_queries=100,
        batch_seconds=seconds, throughput_qps=100 / seconds,
        bottleneck="compute", compute_seconds=seconds,
        memory_seconds=0.0, interconnect_seconds=0.0, avg_bandwidth=1.0,
    )


class TestEnergyModel:
    def test_default_powers(self):
        model = EnergyModel()
        assert model.boss_power_watts == pytest.approx(3.2, rel=0.02)
        assert model.cpu_power_watts == 74.8

    def test_engine_power_routing(self):
        model = EnergyModel()
        assert model.power_for("Lucene") == 74.8
        assert model.power_for("BOSS") == model.boss_power_watts
        assert model.power_for("IIU") == model.boss_power_watts

    def test_energy_is_power_times_time(self):
        model = EnergyModel()
        report = model.energy(_report("BOSS", 3.0))
        assert report.energy_joules == pytest.approx(
            3.0 * model.boss_power_watts)

    def test_savings_ratio(self):
        model = EnergyModel()
        boss = model.energy(_report("BOSS", 1.0))
        lucene = model.energy(_report("Lucene", 8.1))
        # speedup x power ratio: 8.1 * 23.375 = ~189 (the paper's number)
        assert boss.savings_over(lucene) == pytest.approx(189.0, rel=0.01)

    def test_zero_energy_savings_rejected(self):
        report = EnergyReport(engine="x", power_watts=1.0,
                              runtime_seconds=0.0)
        other = EnergyReport(engine="y", power_watts=1.0,
                             runtime_seconds=1.0)
        with pytest.raises(ConfigurationError):
            report.savings_over(other)
