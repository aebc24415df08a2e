"""Unit tests for deficit-round-robin quotas (repro.ioplanner.fairness)."""

import pytest

from repro.errors import ConfigurationError
from repro.ioplanner.fairness import (
    CREDIT_CAP_WINDOWS, DeficitRoundRobin, TenantSpec)


def _drr():
    return DeficitRoundRobin([TenantSpec("a", 1000), TenantSpec("b", 500)])


class TestSpecs:
    def test_bad_specs_rejected(self):
        with pytest.raises(ConfigurationError):
            TenantSpec("", 100)
        with pytest.raises(ConfigurationError):
            TenantSpec("a", 0)
        with pytest.raises(ConfigurationError):
            DeficitRoundRobin([])
        with pytest.raises(ConfigurationError):
            DeficitRoundRobin([TenantSpec("a", 1), TenantSpec("a", 2)])

    def test_unknown_tenant_raises(self):
        drr = _drr()
        with pytest.raises(ConfigurationError):
            drr.can_admit("ghost")


class TestDeficitAccounting:
    def test_quantum_credited_each_window(self):
        drr = _drr()
        drr.begin_window()
        assert drr.deficit("a") == 1000
        assert drr.deficit("b") == 500
        drr.begin_window()
        assert drr.deficit("a") == 2000

    def test_credit_capped_at_burst_windows(self):
        drr = _drr()
        for _ in range(10):
            drr.begin_window()
        assert drr.deficit("a") == CREDIT_CAP_WINDOWS * 1000
        assert drr.deficit("b") == CREDIT_CAP_WINDOWS * 500

    def test_post_paid_overdraw_and_repayment(self):
        drr = _drr()
        drr.begin_window()
        assert drr.can_admit("a")
        drr.charge("a", 3500)  # the query turned out to be huge
        assert drr.deficit("a") == -2500
        assert not drr.can_admit("a")
        # The debt is repaid one quantum per window.
        drr.begin_window()
        drr.begin_window()
        assert not drr.can_admit("a")
        drr.begin_window()
        assert drr.can_admit("a")  # -2500 + 3000 > 0

    def test_charge_is_tracked_per_tenant(self):
        drr = _drr()
        drr.begin_window()
        drr.charge("a", 400)
        drr.charge("a", 100)
        assert drr.deficit("a") == 1000 - 500
        assert drr.deficit("b") == 500
        with pytest.raises(ConfigurationError):
            drr.charge("a", -1)


class TestRotation:
    def test_service_order_rotates_every_window(self):
        drr = _drr()
        drr.begin_window()
        first = drr.service_order()
        drr.begin_window()
        second = drr.service_order()
        assert first != second
        assert sorted(first) == sorted(second) == ["a", "b"]

    def test_isolation_invariant(self):
        # An aggressor overdrawing its quota never reduces the other
        # tenant's credit.
        drr = _drr()
        for _ in range(5):
            drr.begin_window()
            if drr.can_admit("a"):
                drr.charge("a", 10_000)
        assert drr.deficit("b") == pytest.approx(
            min(5 * 500, 4.0 * 500)
        )
        assert drr.can_admit("b")
