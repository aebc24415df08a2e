"""The planned serving loop: windowed admission, planning, execution.

:class:`PlannedQueryServer` is a :class:`repro.serving.server.
QueryServer` whose loop replaces one-query-at-a-time dispatch with short
*planning windows* (the run skeleton — outcome table, shed and SLO
bookkeeping, report — is the base class's): requests arriving inside a
window are queued per tenant, admitted at the window close under
deficit-round-robin byte quotas
(:mod:`repro.ioplanner.fairness`), executed for real against the
target, and their block demands planned together
(:mod:`repro.ioplanner.plan`) over the shared DRAM tier
(:mod:`repro.ioplanner.tier`).

**Execution vs. timeline** follows the serving layer's split exactly:
queries execute bit-identically to the unplanned server (the planner
only records their block fetches, :func:`repro.core.engine.
recording_fetches`; it never alters what the engines fetch or rank),
while the *serving timeline* charges each query the modeled time of
the path the plan routed its blocks through. A block is identified by
the engine that fetched it (its *node*, numbered in first-seen order
for the run) as well as its term and index, so equal terms on
different shards are different blocks. Turning
the planner off (``PlannerConfig(enabled=False)``) keeps the same
windowed loop but charges every block at its engine-recorded pattern —
the controlled baseline for every planner-on comparison.

Gap-fill bytes ride inside their run and are charged to the run's
members pro-rata.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.engine import recording_fetches
from repro.errors import ConfigurationError
from repro.ioplanner.fairness import DeficitRoundRobin, TenantSpec
from repro.ioplanner.plan import (
    BlockDemand,
    FetchPlan,
    RoutedBytes,
    plan_window,
)
from repro.ioplanner.tier import DramTier
from repro.observability.observer import current_observer
from repro.serving.loadgen import Request
from repro.serving.server import (
    SHED_QUEUE_FULL,
    QueryServer,
    RequestOutcome,
    ServingReport,
    ServingResult,
)
from repro.serving.target import execute_request

#: Effectively-unlimited per-window quota for unconfigured tenants.
UNLIMITED_QUOTA = 1 << 62


@dataclass(frozen=True)
class PlannerConfig:
    """How the planner windows, stages, and meters block traffic."""

    #: Planning-window length on the serving timeline.
    window_seconds: float = 0.002
    #: Shared DRAM tier capacity (0 disables the tier).
    dram_bytes: int = 64 << 20
    #: False = planner-off baseline: same windowed loop, no dedup /
    #: tier / coalescing; blocks charged at engine-recorded patterns.
    enabled: bool = True
    #: Logical workers executing admitted queries.
    workers: int = 4
    #: Per-tenant backlog bound (full tenant queue sheds the newcomer).
    queue_capacity: int = 64
    #: Per-query SLO deadline from arrival (None = no SLO accounting).
    deadline_seconds: Optional[float] = None
    #: Top-k passed to the target (None = the target's default).
    k: Optional[int] = None
    #: Tenant quotas; empty = every tenant in the workload, unlimited.
    tenants: Tuple[TenantSpec, ...] = ()

    def __post_init__(self) -> None:
        if self.window_seconds <= 0:
            raise ConfigurationError("planning window must be positive")
        if self.dram_bytes < 0:
            raise ConfigurationError("tier capacity must be >= 0")
        if self.workers < 1:
            raise ConfigurationError("need at least one worker")
        if self.queue_capacity < 1:
            raise ConfigurationError("queue capacity must be >= 1")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ConfigurationError("deadline must be positive (or None)")


@dataclass
class PlannerRunReport(RoutedBytes):
    """Planner-side accounting aggregated over all windows of a run."""

    enabled: bool = True
    windows: int = 0
    runs: int = 0
    sequential_runs: int = 0
    tenant_bytes: Dict[str, int] = field(default_factory=dict)
    tenant_served: Dict[str, int] = field(default_factory=dict)
    tenant_shed: Dict[str, int] = field(default_factory=dict)

    @property
    def staged_fraction(self) -> float:
        """Demand bytes served from DRAM (tier hits + window dedup)."""
        if not self.demand_bytes:
            return 0.0
        return (self.dram_hit_bytes + self.dedup_bytes) / self.demand_bytes

    def absorb(self, plan: FetchPlan) -> None:
        super().absorb(plan)
        self.windows += 1
        self.runs += len(plan.runs)
        self.sequential_runs += plan.num_sequential_runs
        for tenant, nbytes in plan.tenant_bytes.items():
            self.tenant_bytes[tenant] = (
                self.tenant_bytes.get(tenant, 0) + nbytes
            )

    def to_dict(self) -> dict:
        return dict(asdict(self),
                    sequential_share=self.sequential_share,
                    staged_fraction=self.staged_fraction)


class PlannedServingResult(ServingResult):
    """Outcomes (arrival order) plus serving and planner reports."""

    __slots__ = ("planner",)

    def __init__(self, outcomes: List[RequestOutcome],
                 report: ServingReport,
                 planner: PlannerRunReport) -> None:
        super().__init__(outcomes, report)
        self.planner = planner


class PlannedQueryServer(QueryServer):
    """Windowed, planned serving over any search target.

    ``target`` is anything with ``search(expression, k)`` — an engine,
    session, cluster root or :class:`~repro.serving.ServingTarget`. A
    query's service time is its planned fetch time; an update's adds
    the target's ``service_time``. The timeline is fully virtual and
    deterministic; nothing sleeps.

    Only the loop differs from :class:`QueryServer`: the two share no
    admission, queue or dispatch step (dispatch on arrival over one
    bounded queue there; fixed windows, per-tenant queues and
    per-window byte quotas over pre-executed batches here), so
    :meth:`serve` is overridden whole rather than parameterised.
    """

    def __init__(self, target, config: Optional[PlannerConfig] = None
                 ) -> None:
        super().__init__(target,
                         PlannerConfig() if config is None else config)

    # ------------------------------------------------------------------
    # Serving loop
    # ------------------------------------------------------------------

    def serve(self, requests: Sequence[Request]) -> PlannedServingResult:
        requests, outcomes = self._begin(requests)
        cfg = self._config
        drr = self._build_scheduler(requests)
        tier = (
            DramTier(cfg.dram_bytes)
            if cfg.enabled and cfg.dram_bytes > 0 else None
        )
        run_report = PlannerRunReport(enabled=cfg.enabled)
        queues: Dict[str, deque] = {name: deque() for name in drr.tenants}
        pending = deque(requests)
        worker_free = [0.0] * cfg.workers
        heapq.heapify(worker_free)
        depth_samples: List[int] = []
        max_depth = 0
        #: engine -> node number, in first-seen order.
        nodes: Dict[object, int] = {}

        window = 0
        while pending or any(queues.values()):
            if pending and not any(queues.values()):
                # Idle gap: jump to the window of the next arrival.
                window = max(window, int(
                    pending[0].arrival_seconds / cfg.window_seconds
                ))
            window += 1
            close = window * cfg.window_seconds
            while pending and pending[0].arrival_seconds < close:
                self._enqueue(pending.popleft(), queues, outcomes,
                              run_report)
            depth = sum(len(q) for q in queues.values())
            depth_samples.append(depth)
            max_depth = max(max_depth, depth)

            admitted = self._admit(drr, queues)
            if not admitted:
                continue
            plan = self._run_window(admitted, outcomes, tier, close,
                                    worker_free, drr, run_report, nodes)
            run_report.absorb(plan)
            depth_samples.append(sum(len(q) for q in queues.values()))
            current_observer().emit(plan)

        run_report.check_conservation()
        return PlannedServingResult(
            *self._finish(requests, outcomes, depth_samples, max_depth),
            run_report,
        )

    # ------------------------------------------------------------------
    # Window steps
    # ------------------------------------------------------------------

    def _build_scheduler(self,
                         requests: Sequence[Request]) -> DeficitRoundRobin:
        cfg = self._config
        if cfg.tenants:
            return DeficitRoundRobin(cfg.tenants)
        seen = list(dict.fromkeys(
            getattr(r, "tenant", "default") for r in requests
        ))
        return DeficitRoundRobin(tuple(
            TenantSpec(name, UNLIMITED_QUOTA) for name in seen
        ))

    def _enqueue(self, request: Request, queues: Dict[str, deque],
                 outcomes: Dict[int, RequestOutcome],
                 run_report: PlannerRunReport) -> None:
        tenant = getattr(request, "tenant", "default")
        if tenant not in queues:
            known = ", ".join(sorted(queues))
            raise ConfigurationError(
                f"request {request.request_id} names unknown tenant "
                f"{tenant!r} (configured: {known})"
            )
        queue = queues[tenant]
        if len(queue) >= self._config.queue_capacity:
            # The tenant's backlog is full: its own newcomer is shed,
            # other tenants' queues are untouched (isolation).
            run_report.tenant_shed[tenant] = (
                run_report.tenant_shed.get(tenant, 0) + 1
            )
            self._shed(outcomes[request.request_id], SHED_QUEUE_FULL)
            return
        queue.append(request)
        self._admitted(len(queue))

    def _admit(self, drr: DeficitRoundRobin,
               queues: Dict[str, deque]) -> List[Request]:
        """One DRR pass: rotate tenants, take one query per turn."""
        drr.begin_window()
        admitted: List[Request] = []
        order = drr.service_order()
        progress = True
        while progress:
            progress = False
            for tenant in order:
                queue = queues[tenant]
                if queue and drr.can_admit(tenant):
                    admitted.append(queue.popleft())
                    progress = True
        return admitted

    def _run_window(self, admitted: Sequence[Request],
                    outcomes: Dict[int, RequestOutcome],
                    tier: Optional[DramTier], close: float,
                    worker_free: List[float], drr: DeficitRoundRobin,
                    run_report: PlannerRunReport,
                    nodes: Dict[object, int]) -> FetchPlan:
        cfg = self._config
        demands: List[BlockDemand] = []
        for request in admitted:
            tenant = getattr(request, "tenant", "default")
            with recording_fetches() as fetches:
                result = execute_request(self._target, request, cfg.k)
            outcome = outcomes[request.request_id]
            outcome.result = result
            outcome.degraded = bool(getattr(result, "degraded", False))
            for engine, records in fetches.items():
                node = nodes.setdefault(engine, len(nodes))
                for term, block, size, pattern in records:
                    demands.append(BlockDemand(
                        request_id=request.request_id, tenant=tenant,
                        node=node, term=term, block_index=block,
                        size=size, pattern=pattern,
                    ))
            run_report.tenant_served[tenant] = (
                run_report.tenant_served.get(tenant, 0) + 1
            )

        plan = plan_window(demands, tier=tier, enabled=cfg.enabled)
        if tier is not None:
            for list_key, block, size in plan.fetched:
                tier.admit(list_key, block, size)

        for request in admitted:
            tenant = getattr(request, "tenant", "default")
            drr.charge(tenant,
                       plan.per_request_bytes.get(request.request_id, 0))
            outcome = outcomes[request.request_id]
            seconds = plan.per_request_seconds.get(request.request_id, 0.0)
            if getattr(request, "update", None) is not None:
                seconds += self._target.service_time(request,
                                                     outcome.result)
            start = max(close, heapq.heappop(worker_free))
            completion = start + seconds
            heapq.heappush(worker_free, completion)
            outcome.start_seconds = start
            outcome.completion_seconds = completion
            self._served(outcome)
        return plan
