"""Table III: area and power breakdown of BOSS at TSMC 40 nm.

Numbers are the paper's synthesis results (Synopsys Design Compiler,
TSMC 40 nm standard cells, 1 GHz). Areas are totals over all instances
of a component; power is average dynamic+static power.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class ComponentCost:
    """Synthesis cost of one component type."""

    name: str
    instances: int
    area_mm2: float
    power_mw: float


#: Per-core module breakdown (Table III, lower half). Areas/powers are
#: totals over the listed instance counts within ONE BOSS core.
BOSS_CORE_BREAKDOWN: Tuple[ComponentCost, ...] = (
    ComponentCost("block-fetch", 1, 0.108, 10.5),
    ComponentCost("decompression", 4, 0.093, 43.0),
    ComponentCost("intersection", 1, 0.003, 0.49),
    ComponentCost("union", 1, 0.011, 5.55),
    ComponentCost("scoring", 4, 0.464, 200.0),
    ComponentCost("top-k", 1, 0.324, 147.1),
)

#: Device-level breakdown (Table III, upper half): 8 cores + peripherals.
BOSS_DEVICE_BREAKDOWN: Tuple[ComponentCost, ...] = (
    ComponentCost("boss-core", 8, 8.024, 3200.0),
    ComponentCost("command-queue", 1, 0.078, 0.078),
    ComponentCost("query-scheduler", 1, 0.001, 1.96),
    ComponentCost("mai-with-tlb", 1, 0.127, 1.20),
)

#: Measured average package power of the evaluation host CPU (Intel Xeon
#: 8280M via Intel SoC Watch, paper Section V-C footnote).
CPU_PACKAGE_POWER_W: float = 74.8

#: Paper-reported totals, used as consistency checks.
PAPER_CORE_AREA_MM2 = 1.003
PAPER_CORE_POWER_MW = 406.6
PAPER_DEVICE_AREA_MM2 = 8.27
PAPER_DEVICE_POWER_W = 3.2


def boss_core_totals() -> Dict[str, float]:
    """Summed area (mm^2) and power (mW) of one BOSS core."""
    return {
        "area_mm2": sum(c.area_mm2 for c in BOSS_CORE_BREAKDOWN),
        "power_mw": sum(c.power_mw for c in BOSS_CORE_BREAKDOWN),
    }


def boss_device_totals() -> Dict[str, float]:
    """Summed area (mm^2) and power (mW) of the full 8-core device."""
    return {
        "area_mm2": sum(c.area_mm2 for c in BOSS_DEVICE_BREAKDOWN),
        "power_mw": sum(c.power_mw for c in BOSS_DEVICE_BREAKDOWN),
    }
