"""The serving-target protocol: what a server asks of what it serves.

:class:`~repro.serving.server.QueryServer` and
:class:`~repro.ioplanner.server.PlannedQueryServer` run a bare engine,
session or cluster root through ``search`` alone and time it on the
wall clock. Everything richer — a live index taking mutations, a
cluster moving shards under traffic, a hybrid lexical+vector lane —
reaches the servers through one contract, :class:`ServingTarget`:

* ``search`` / ``apply_update`` execute a request for real;
* ``service_time`` is the request's *modeled* seconds on the serving
  timeline, so a run is a pure function of its workload;
* ``clock`` is the virtual clock the target's maintenance runs on
  (``None`` for a target with no timeline state of its own);
* ``engines`` / ``replicas`` are the leaf engines whose fetch logs the
  I/O planner captures (empty when the target exposes none).

The two pieces of timeline mechanics every stateful target needs —
start maintenance at the request's arrival instant, and queue reads
behind an in-flight maintenance window — live here once.
"""

from __future__ import annotations

from typing import Optional, Protocol, Sequence, runtime_checkable

from repro.clock import Clock


@runtime_checkable
class ServingTarget(Protocol):
    """Structural contract of a modeled serving target.

    Pass ``service_time=target.service_time, clock=target.clock`` to
    :class:`~repro.serving.server.QueryServer`; the planner's server
    needs only the target itself.
    """

    #: Virtual clock shared with the target's maintenance (or None).
    clock: Optional[Clock]

    def search(self, expression, k: Optional[int] = None):
        """Execute one query; ``k=None`` means the target's default."""

    def apply_update(self, request):
        """Execute the mutation ``request.update`` carries."""

    def service_time(self, request, result) -> float:
        """Modeled seconds ``request`` occupies a serving worker."""

    @property
    def engines(self) -> Sequence:
        """Primary leaf engines of the current topology."""

    @property
    def replicas(self) -> Sequence[Sequence]:
        """Replica leaf engines, grouped per shard."""


def execute_request(target, request, k: Optional[int]):
    """Run ``request`` for real: a mutation goes to ``apply_update``,
    a query to ``search`` (``k=None`` keeps the target's default)."""
    if getattr(request, "update", None) is not None:
        return target.apply_update(request)
    return target.search(request.expression, k=k)


def advance_to_arrival(clock, request) -> None:
    """Move a virtual ``clock`` forward to ``request``'s arrival.

    Maintenance a request triggers then opens its busy-window exactly
    at the arrival instant, run after run. A wall clock (no
    ``advance``) or a clock already past the arrival is left alone.
    """
    arrival = getattr(request, "arrival_seconds", None)
    if arrival is None or not hasattr(clock, "advance"):
        return
    lag = arrival - clock.now()
    if lag > 0:
        clock.advance(lag)


def queued_read_seconds(device, result, busy_until: float,
                        request) -> float:
    """Modeled read time of a query behind in-flight maintenance.

    The device read time of the query's traffic, extended by whatever
    remains at its arrival of the maintenance busy-window ending at
    ``busy_until`` — reads queue behind the seal, merge or shard move
    on the shared device.
    """
    seconds = device.service_time(result.traffic)
    backlog = busy_until - request.arrival_seconds
    if backlog > 0:
        seconds += backlog
    return seconds
