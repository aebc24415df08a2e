"""The serving-target protocol: what a server asks of what it serves.

:class:`~repro.serving.server.QueryServer` and
:class:`~repro.ioplanner.server.PlannedQueryServer` run a bare engine,
session or cluster root through ``search`` alone and time it on the
wall clock. Everything richer — a live index taking mutations, a
cluster moving shards under traffic, a hybrid lexical+vector lane —
reaches the servers through one contract, :class:`ServingTarget`:

* ``search`` / ``apply_update`` execute a request for real;
* ``service_time`` is the request's *modeled* seconds on the serving
  timeline, so a run is a pure function of its workload.

The I/O planner asks nothing more: it records the block fetches of
whatever engines a request reaches
(:func:`repro.core.engine.recording_fetches`).

Maintenance (seals, merges, shard moves) and reads share one device,
whose busy windows live on one :class:`MaintenanceTimeline`.
"""

from __future__ import annotations

from typing import Optional, Protocol, Tuple, runtime_checkable

from repro.clock import Clock
from repro.core.result import SearchResult
from repro.scm.device import MemoryDeviceModel


@runtime_checkable
class ServingTarget(Protocol):
    """Structural contract of a modeled serving target.

    Pass ``service_time=target.service_time`` to
    :class:`~repro.serving.server.QueryServer`; the planner's server
    needs only the target itself.
    """

    def search(self, expression, k: Optional[int] = None):
        """Execute one query; ``k=None`` means the target's default."""

    def apply_update(self, request):
        """Execute the mutation ``request.update`` carries."""

    def service_time(self, request, result) -> float:
        """Modeled seconds ``request`` occupies a serving worker."""


def execute_request(target, request, k: Optional[int]):
    """Run ``request`` for real: a mutation goes to ``apply_update``,
    a query to ``search`` (``k=None`` keeps the target's default)."""
    if getattr(request, "update", None) is not None:
        return target.apply_update(request)
    return target.search(request.expression, k=k)


class MaintenanceTimeline:
    """Busy windows of maintenance on one device, queued FIFO from the
    ``clock``'s now (0.0 with no clock). The merge scheduler and the
    rebalancer extend it; setting ``busy_until`` declares the device
    idle from then on."""

    def __init__(self, device: MemoryDeviceModel,
                 clock: Optional[Clock]) -> None:
        self.device = device
        self.clock = clock
        self.busy_until = 0.0
        #: Total modeled device seconds consumed by maintenance.
        self.busy_seconds = 0.0

    def occupy(self, seconds: float) -> Tuple[float, float]:
        """Queue one busy window of ``seconds``; returns (start, end)."""
        now = 0.0 if self.clock is None else self.clock.now()
        start = max(now, self.busy_until)
        end = start + seconds
        self.busy_until = end
        self.busy_seconds += seconds
        return start, end

    def read_delay(self, arrival: float) -> float:
        """Seconds a read arriving at ``arrival`` waits for maintenance."""
        backlog = self.busy_until - arrival
        return backlog if backlog > 0 else 0.0

    def advance_to_arrival(self, request) -> None:
        """Move a virtual clock forward to ``request``'s arrival, so the
        maintenance it triggers opens its window exactly there. A wall
        clock, no clock or a clock past the arrival is left alone."""
        arrival = getattr(request, "arrival_seconds", None)
        if arrival is None or not hasattr(self.clock, "advance"):
            return
        lag = arrival - self.clock.now()
        if lag > 0:
            self.clock.advance(lag)


class TimelineTarget:
    """The ``service_time`` of a target whose maintenance runs on
    ``self.timeline``, a :class:`MaintenanceTimeline`."""

    timeline: MaintenanceTimeline

    def service_time(self, request, result) -> float:
        """A maintenance report costs its ``modeled_seconds`` (``request``
        may be None); a query, its device read time plus its read delay.
        """
        if not isinstance(result, SearchResult):
            return result.modeled_seconds
        timeline = self.timeline
        return (timeline.device.service_time(result.traffic)
                + timeline.read_delay(request.arrival_seconds))
