"""Injectable clock: wall time by default, virtual time under test.

Three subsystems sleep or measure elapsed time on purpose — fault
injection (latency spikes, :mod:`repro.faults`), resilient leaf
execution (per-attempt timeouts, :mod:`repro.cluster.resilience`),
and the serving queue (:mod:`repro.serving`). Binding them to ``time.sleep`` directly makes
every fault-matrix test and CI smoke run burn real seconds, so each of
them takes a :class:`Clock` instead:

* :data:`WALL_CLOCK` (the default everywhere) reads
  ``time.perf_counter`` and really sleeps — production behavior is
  unchanged;
* :class:`VirtualClock` advances a simulated ``now`` instantly on
  ``sleep`` and records every requested duration, so a test can assert
  the *schedule* of sleeps (latency-spike lengths) without
  waiting through them. ``advance`` lets a stub engine model a slow
  attempt, which is how the timeout paths are exercised in zero wall
  time.

The two implementations share the duck type ``now() -> float`` /
``sleep(seconds) -> None``; nothing in the library type-checks beyond
that, so tests may substitute richer fakes freely.
"""

from __future__ import annotations

import time

from repro.errors import ConfigurationError


class Clock:
    """Duck-type contract: a monotonic ``now`` and a ``sleep``."""

    def now(self) -> float:
        """Monotonic seconds; only differences are meaningful."""
        raise NotImplementedError

    def sleep(self, seconds: float) -> None:
        """Block (or simulate blocking) for ``seconds``."""
        raise NotImplementedError


class WallClock(Clock):
    """The real thing: ``time.perf_counter`` + ``time.sleep``."""

    def now(self) -> float:
        return time.perf_counter()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


class VirtualClock(Clock):
    """Simulated time: ``sleep`` advances instantly and is recorded.

    ``sleeps`` keeps every requested sleep duration in call order, so
    tests assert on the exact spike schedule. ``advance`` moves
    time forward without recording a sleep — the hook for stub engines
    that model slow work (e.g. to trip a per-attempt timeout).
    """

    def __init__(self) -> None:
        self._now = 0.0
        self.sleeps: list = []

    def now(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise ConfigurationError(
                f"cannot sleep a negative duration ({seconds})"
            )
        self.sleeps.append(seconds)
        self._now += seconds

    def advance(self, seconds: float) -> None:
        """Move time forward without counting as a sleep."""
        if seconds < 0:
            raise ConfigurationError(
                f"cannot advance time backwards ({seconds})"
            )
        self._now += seconds


#: Shared default; stateless, so one instance serves the whole process.
WALL_CLOCK = WallClock()
