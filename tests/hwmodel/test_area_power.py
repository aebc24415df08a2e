"""Table III consistency tests."""

import pytest

from repro.hwmodel.area_power import (
    BOSS_CORE_BREAKDOWN,
    BOSS_DEVICE_BREAKDOWN,
    CPU_PACKAGE_POWER_W,
    PAPER_CORE_AREA_MM2,
    PAPER_CORE_POWER_MW,
    PAPER_DEVICE_AREA_MM2,
    PAPER_DEVICE_POWER_W,
    boss_core_totals,
    boss_device_totals,
)


class TestCoreBreakdown:
    def test_component_set(self):
        names = {c.name for c in BOSS_CORE_BREAKDOWN}
        assert names == {
            "block-fetch", "decompression", "intersection",
            "union", "scoring", "top-k",
        }

    def test_instance_counts_match_table_i(self):
        counts = {c.name: c.instances for c in BOSS_CORE_BREAKDOWN}
        assert counts["decompression"] == 4
        assert counts["scoring"] == 4
        assert counts["top-k"] == 1

    def test_core_area_sums_to_paper_total(self):
        assert boss_core_totals()["area_mm2"] == pytest.approx(
            PAPER_CORE_AREA_MM2, rel=0.01
        )

    def test_core_power_sums_to_paper_total(self):
        assert boss_core_totals()["power_mw"] == pytest.approx(
            PAPER_CORE_POWER_MW, rel=0.01
        )

    def test_scoring_is_largest_module(self):
        """Paper: 'The scoring module's area is the largest ... due to
        fixed-point dividers'."""
        largest = max(BOSS_CORE_BREAKDOWN, key=lambda c: c.area_mm2)
        assert largest.name == "scoring"

    def test_topk_is_second_largest(self):
        ranked = sorted(BOSS_CORE_BREAKDOWN, key=lambda c: c.area_mm2,
                        reverse=True)
        assert ranked[1].name == "top-k"


class TestDeviceBreakdown:
    def test_device_area_close_to_paper_total(self):
        assert boss_device_totals()["area_mm2"] == pytest.approx(
            PAPER_DEVICE_AREA_MM2, rel=0.01
        )

    def test_device_power_close_to_paper_total(self):
        assert boss_device_totals()["power_mw"] / 1000.0 == pytest.approx(
            PAPER_DEVICE_POWER_W, rel=0.02
        )

    def test_eight_cores(self):
        core = next(c for c in BOSS_DEVICE_BREAKDOWN if c.name == "boss-core")
        assert core.instances == 8

    def test_per_instance_figures(self):
        core = next(c for c in BOSS_DEVICE_BREAKDOWN if c.name == "boss-core")
        assert core.area_mm2 / core.instances == pytest.approx(1.003, rel=0.01)
        assert core.power_mw / core.instances == pytest.approx(400.0, rel=0.01)


class TestCPUReference:
    def test_power_ratio_vs_cpu(self):
        """Paper: 'BOSS consumes 23.3x less power compared to the host
        CPU' (74.8 W / 3.2 W)."""
        ratio = CPU_PACKAGE_POWER_W / (
            boss_device_totals()["power_mw"] / 1000.0
        )
        assert ratio == pytest.approx(23.3, rel=0.02)
