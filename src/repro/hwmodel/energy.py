"""Energy model: runtime x power (Figure 17).

The paper reports a 189x average energy saving of BOSS over 8-core
Lucene. Energy is runtime times average power: BOSS draws 3.2 W
(Table III), the host CPU package 74.8 W. Memory-device energy is
excluded on both sides (the same SCM pool serves both configurations),
exactly as the paper compares compute energy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.hwmodel.area_power import CPU_PACKAGE_POWER_W, boss_device_totals
from repro.sim.timing import ThroughputReport


@dataclass(frozen=True)
class EnergyReport:
    """Energy outcome for one engine run."""

    engine: str
    power_watts: float
    runtime_seconds: float

    @property
    def energy_joules(self) -> float:
        return self.power_watts * self.runtime_seconds

    def savings_over(self, other: "EnergyReport") -> float:
        """How many times less energy this run used than ``other``."""
        if self.energy_joules <= 0:
            raise ConfigurationError("non-positive energy")
        return other.energy_joules / self.energy_joules


class EnergyModel:
    """Maps engine throughput reports to energy consumption, at Table
    III's BOSS device power and the host CPU package's."""

    boss_power_watts = boss_device_totals()["power_mw"] / 1000.0
    cpu_power_watts = CPU_PACKAGE_POWER_W

    def power_for(self, engine: str) -> float:
        """Average power draw of an engine's compute substrate."""
        if engine.lower().startswith("lucene"):
            return self.cpu_power_watts
        # BOSS and IIU are both small ASICs; the paper reports only
        # BOSS's synthesis, and IIU's published design is of the same
        # scale — both are charged the accelerator power.
        return self.boss_power_watts

    def energy(self, report: ThroughputReport) -> EnergyReport:
        """Energy of one batch run."""
        return EnergyReport(
            engine=report.engine,
            power_watts=self.power_for(report.engine),
            runtime_seconds=report.batch_seconds,
        )
