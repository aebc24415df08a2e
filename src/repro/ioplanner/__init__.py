"""Global I/O planning over the serving layer.

The per-query engines fetch posting-list blocks on demand, one cursor
at a time — each query pays the SCM's random-read rate for every skip
landing and re-fetches hot blocks its neighbors just pulled. The I/O
planner sits between the admission queue and the search target and
plans *across* queries instead: admitted requests are batched over a
short planning window, their block demands are deduplicated and
coalesced into large sequential SCM runs, and the blocks they fetched
stay staged in a shared DRAM-over-SCM tier for later windows.
Per-tenant byte quotas keep one aggressive workload from starving the
rest of the window's bandwidth.

Modules:

* :mod:`repro.ioplanner.plan` — window planning: dedup, run
  coalescing with gap-fill, per-query service-time attribution, and
  the traffic-conservation invariant;
* :mod:`repro.ioplanner.tier` — the segmented (hot/warm/cold) DRAM
  tier, filled by demand fetches only;
* :mod:`repro.ioplanner.fairness` — per-tenant byte quotas enforced
  with deficit round robin;
* :mod:`repro.ioplanner.server` — :class:`PlannedQueryServer`, the
  windowed serving loop that ties the pieces together.

See ``docs/io_planner.md`` for the architecture and the modeling
assumptions.
"""

from repro.ioplanner.fairness import DeficitRoundRobin, TenantSpec
from repro.ioplanner.plan import FetchPlan, FetchRun, plan_window
from repro.ioplanner.server import (
    PlannedQueryServer,
    PlannedServingResult,
    PlannerConfig,
    PlannerRunReport,
)
from repro.ioplanner.tier import DramTier

__all__ = [
    "DeficitRoundRobin",
    "DramTier",
    "FetchPlan",
    "FetchRun",
    "PlannedQueryServer",
    "PlannedServingResult",
    "PlannerConfig",
    "PlannerRunReport",
    "TenantSpec",
    "plan_window",
]
