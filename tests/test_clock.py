"""Tests for the injectable clock (repro.clock).

The clock exists so fault injection, resilience, and serving can be
driven in zero wall time; these tests pin the contract both
implementations share and the VirtualClock bookkeeping the fault and
serving suites lean on.
"""

import pytest

from repro.clock import WALL_CLOCK, Clock, VirtualClock, WallClock
from repro.errors import ConfigurationError


class TestContract:
    def test_base_class_is_abstract(self):
        clock = Clock()
        with pytest.raises(NotImplementedError):
            clock.now()
        with pytest.raises(NotImplementedError):
            clock.sleep(0.1)

    def test_singleton_is_a_wall_clock(self):
        assert isinstance(WALL_CLOCK, WallClock)


class TestWallClock:
    def test_now_is_monotonic_nondecreasing(self):
        clock = WallClock()
        a = clock.now()
        b = clock.now()
        assert b >= a

    def test_zero_and_negative_sleep_do_not_block(self, monkeypatch):
        import time

        def _boom(seconds):
            raise AssertionError("time.sleep called")

        monkeypatch.setattr(time, "sleep", _boom)
        clock = WallClock()
        clock.sleep(0)
        clock.sleep(-1.0)

    def test_positive_sleep_delegates(self, monkeypatch):
        import time

        slept = []
        monkeypatch.setattr(time, "sleep", slept.append)
        WallClock().sleep(0.125)
        assert slept == [0.125]


class TestVirtualClock:
    def test_starts_at_given_time(self):
        assert VirtualClock().now() == 0.0

    def test_sleep_advances_and_records(self):
        clock = VirtualClock()
        clock.sleep(0.5)
        clock.sleep(0.25)
        assert clock.now() == pytest.approx(0.75)
        assert clock.sleeps == [0.5, 0.25]
        assert sum(clock.sleeps) == pytest.approx(0.75)

    def test_zero_sleep_is_recorded(self):
        clock = VirtualClock()
        clock.sleep(0.0)
        assert clock.sleeps == [0.0]
        assert clock.now() == 0.0

    def test_advance_moves_time_without_a_sleep(self):
        clock = VirtualClock()
        clock.advance(2.0)
        assert clock.now() == 2.0
        assert clock.sleeps == []
        assert sum(clock.sleeps) == 0.0

    def test_negative_durations_rejected(self):
        clock = VirtualClock()
        with pytest.raises(ConfigurationError):
            clock.sleep(-0.1)
        with pytest.raises(ConfigurationError):
            clock.advance(-0.1)

    def test_exported_from_package_root(self):
        import repro

        assert repro.VirtualClock is VirtualClock
        assert repro.WALL_CLOCK is WALL_CLOCK
