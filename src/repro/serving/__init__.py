"""Online serving: open-loop load generation, admission control, SLOs.

The serving layer turns the closed, pre-collected batches of
:mod:`repro.batch` into continuous operation: queries *arrive* on a
seeded open-loop timeline (:mod:`repro.serving.loadgen`), wait in a
bounded admission queue, and execute on a worker pool with per-query
deadlines and shed/degraded accounting
(:mod:`repro.serving.server`). Stateful targets — live index, moving
cluster, hybrid lane — plug in through the one :class:`ServingTarget`
protocol (:mod:`repro.serving.target`). See ``docs/serving.md`` for
the architecture and the open- vs closed-loop methodology.
"""

from repro.serving.loadgen import (
    PoissonArrivals,
    Request,
    TraceArrivals,
    build_requests,
    splice_requests,
    zipf_workload,
)
from repro.serving.server import (
    ADMISSION_POLICIES,
    QueryServer,
    RequestOutcome,
    ServingConfig,
    ServingReport,
    ServingResult,
)
from repro.serving.target import ServingTarget

__all__ = [
    "ADMISSION_POLICIES",
    "PoissonArrivals",
    "QueryServer",
    "Request",
    "RequestOutcome",
    "ServingConfig",
    "ServingReport",
    "ServingResult",
    "ServingTarget",
    "TraceArrivals",
    "build_requests",
    "splice_requests",
    "zipf_workload",
]
