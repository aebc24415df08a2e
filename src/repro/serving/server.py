"""Continuous query serving: admission control, load shedding, SLOs.

:class:`QueryServer` layers an online serving discipline over any
search target the library provides — a :class:`repro.api.BossSession`,
a bare engine, or a :class:`repro.cluster.root.SearchCluster` (whose
leaf execution then runs through the resilience path of
:mod:`repro.cluster.resilience`, fault injection and all). Requests
arrive on an open-loop timeline (:mod:`repro.serving.loadgen`), wait in
a bounded admission queue, and are dispatched to a pool of ``workers``
logical workers.

**Execution vs. timeline.** Queries execute for real (results are
bit-identical to :func:`repro.batch.run_query_batch` on the same
expressions — pinned by tests), but the *serving timeline* is an
event-driven simulation: each dispatch charges the worker with the
query's service time (measured wall-clock by default, or a caller
supplied deterministic model), and arrivals/completions interleave by
timestamp. This is the same modeled-vs-wall split the rest of the
simulator uses (``docs/performance-model.md``) and it is what makes
serving runs deterministic: given a seed and a service-time model, the
same admission, shedding, and SLO decisions replay exactly, with no
thread-scheduling noise and no real sleeping.

**Admission policies** (queue full at arrival):

* ``reject`` — the arriving query is shed (``queue_full``);
* ``shed-oldest`` — the oldest *queued* query is shed
  (``shed_oldest``) and the newcomer admitted: freshest-first under
  overload;
* ``deadline`` — queued queries whose deadline already passed are
  evicted first (``deadline``); if none had expired the newcomer is
  shed (``queue_full``). At dispatch time, a queued query past its
  deadline is dropped instead of executed — work that can no longer
  meet its SLO is not worth doing.

**SLO accounting**: with ``deadline_seconds`` set, every served query
is classified attained/violated on arrival-to-completion latency; shed
queries are counted separately, and queries served from a degraded
cluster merge (a failed shard skipped) are reported as
``served_degraded`` — answered, but not with full coverage.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.batch import percentile
from repro.clock import WALL_CLOCK, Clock
from repro.errors import ConfigurationError
from repro.observability.observer import current_observer
from repro.observability.registry import LATENCY_BUCKETS_US
from repro.serving.loadgen import Request
from repro.serving.target import execute_request

#: Admission policies a :class:`ServingConfig` accepts.
ADMISSION_POLICIES = ("reject", "shed-oldest", "deadline")

#: Shed reasons appearing in outcomes, reports, and ``serving.shed``.
SHED_QUEUE_FULL = "queue_full"
SHED_OLDEST = "shed_oldest"
SHED_DEADLINE = "deadline"


@dataclass(frozen=True)
class ServingConfig:
    """How the server admits, queues, and paces query execution."""

    #: Logical workers draining the admission queue concurrently.
    workers: int = 4
    #: Bounded admission queue (0 = no queueing: busy server sheds).
    queue_capacity: int = 32
    #: One of :data:`ADMISSION_POLICIES`.
    admission: str = "reject"
    #: Per-query SLO deadline from arrival (None = no SLO accounting).
    deadline_seconds: Optional[float] = None
    #: Top-k passed to the target (None = the target's default).
    k: Optional[int] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError(
                f"need at least one worker, got {self.workers}"
            )
        if self.queue_capacity < 0:
            raise ConfigurationError(
                f"queue capacity must be >= 0, got {self.queue_capacity}"
            )
        if self.admission not in ADMISSION_POLICIES:
            raise ConfigurationError(
                f"unknown admission policy {self.admission!r} "
                f"(choose from {', '.join(ADMISSION_POLICIES)})"
            )
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ConfigurationError("deadline must be positive (or None)")
        if self.admission == "deadline" and self.deadline_seconds is None:
            raise ConfigurationError(
                "the deadline admission policy needs deadline_seconds"
            )


@dataclass(frozen=True)
class RequestAdmitted:
    """The serving layer accepted a request (observer event);
    ``queue_depth`` is the occupancy after enqueueing (0 = dispatched
    immediately)."""

    queue_depth: int

    def publish_metrics(self, registry) -> None:
        registry.counter(
            "serving.admitted", "requests accepted by the serving layer"
        ).inc()
        depth = registry.gauge(
            "serving.queue_depth_max", "deepest admission queue seen"
        )
        if self.queue_depth > depth.value():
            depth.set(self.queue_depth)


@dataclass
class RequestOutcome:
    """What happened to one request, on the serving timeline."""

    request_id: int
    expression: str
    arrival_seconds: float
    #: "served" or "shed".
    status: str = "served"
    #: Why a shed request was dropped (a ``SHED_*`` constant).
    shed_reason: Optional[str] = None
    #: Dispatch instant (None when shed before dispatch).
    start_seconds: Optional[float] = None
    completion_seconds: Optional[float] = None
    #: The search result (engine ``SearchResult`` or cluster merge).
    result: Optional[object] = None
    #: Served from a degraded cluster merge (failed shard skipped).
    degraded: bool = False
    #: Latency <= deadline (None: shed, or no deadline configured).
    slo_attained: Optional[bool] = None

    @property
    def served(self) -> bool:
        return self.status == "served"

    @property
    def queue_wait_seconds(self) -> float:
        if self.start_seconds is None:
            return 0.0
        return self.start_seconds - self.arrival_seconds

    @property
    def latency_seconds(self) -> Optional[float]:
        """Arrival-to-completion latency (None when shed)."""
        if self.completion_seconds is None:
            return None
        return self.completion_seconds - self.arrival_seconds

    def publish_metrics(self, registry) -> None:
        """The request's final disposition: shed, or served."""
        if not self.served:
            registry.counter(
                "serving.shed", "requests dropped by admission control"
            ).inc(reason=self.shed_reason)
            return
        if self.slo_attained is None:
            slo = "none"
        else:
            slo = "attained" if self.slo_attained else "violated"
        registry.counter(
            "serving.served", "requests answered, by SLO outcome"
        ).inc(slo=slo, degraded=str(self.degraded).lower())
        registry.histogram(
            "serving.latency_us", LATENCY_BUCKETS_US,
            "arrival-to-completion serving latency (us)",
        ).observe(self.latency_seconds * 1e6)
        registry.histogram(
            "serving.queue_wait_us", LATENCY_BUCKETS_US,
            "admission-queue wait before dispatch (us)",
        ).observe(self.queue_wait_seconds * 1e6)


@dataclass
class ServingReport:
    """Aggregate accounting over one sustained-load run."""

    num_requests: int = 0
    served: int = 0
    shed: int = 0
    shed_by_reason: Dict[str, int] = field(default_factory=dict)
    served_degraded: int = 0
    slo_attained: int = 0
    slo_violated: int = 0
    deadline_seconds: Optional[float] = None
    #: Arrival span of the workload (first to last arrival).
    offered_seconds: float = 0.0
    #: First arrival to the last timeline event (completion *or*
    #: arrival — a run whose tail is all shed still has a span).
    makespan_seconds: float = 0.0
    p50_latency_seconds: float = 0.0
    p95_latency_seconds: float = 0.0
    p99_latency_seconds: float = 0.0
    mean_latency_seconds: float = 0.0
    mean_queue_wait_seconds: float = 0.0
    #: Queue depth sampled at every arrival and every completion —
    #: arrival-only sampling misses the drain side and under-reports
    #: sustained pressure on overload-heavy runs.
    mean_queue_depth: float = 0.0
    max_queue_depth: int = 0

    @property
    def offered_qps(self) -> float:
        """Empirical offered load (arrivals over the arrival span)."""
        if self.offered_seconds <= 0:
            return 0.0
        return self.num_requests / self.offered_seconds

    @property
    def achieved_qps(self) -> float:
        """Served throughput over the makespan."""
        if self.makespan_seconds <= 0:
            return 0.0
        return self.served / self.makespan_seconds

    @property
    def shed_fraction(self) -> float:
        if self.num_requests <= 0:
            return 0.0
        return self.shed / self.num_requests

    @property
    def slo_violation_fraction(self) -> float:
        """Violations over *all* requests — a shed query is not a win."""
        if self.deadline_seconds is None or self.num_requests <= 0:
            return 0.0
        return (self.slo_violated + self.shed) / self.num_requests

    def publish_metrics(self, registry) -> None:
        registry.counter(
            "serving.runs", "sustained-load runs completed"
        ).inc()
        registry.gauge(
            "serving.last_achieved_qps", "served throughput of last run"
        ).set(self.achieved_qps)
        registry.gauge(
            "serving.last_shed_fraction", "shed fraction of last run"
        ).set(self.shed_fraction)

    def to_dict(self) -> dict:
        return {
            "num_requests": self.num_requests,
            "served": self.served,
            "shed": self.shed,
            "shed_by_reason": dict(self.shed_by_reason),
            "shed_fraction": self.shed_fraction,
            "served_degraded": self.served_degraded,
            "slo_attained": self.slo_attained,
            "slo_violated": self.slo_violated,
            "slo_violation_fraction": self.slo_violation_fraction,
            "deadline_seconds": self.deadline_seconds,
            "offered_qps": self.offered_qps,
            "achieved_qps": self.achieved_qps,
            "makespan_seconds": self.makespan_seconds,
            "p50_latency_seconds": self.p50_latency_seconds,
            "p95_latency_seconds": self.p95_latency_seconds,
            "p99_latency_seconds": self.p99_latency_seconds,
            "mean_latency_seconds": self.mean_latency_seconds,
            "mean_queue_wait_seconds": self.mean_queue_wait_seconds,
            "mean_queue_depth": self.mean_queue_depth,
            "max_queue_depth": self.max_queue_depth,
        }


class ServingResult:
    """Per-request outcomes (in arrival order) plus the run report."""

    __slots__ = ("outcomes", "report")

    def __init__(self, outcomes: List[RequestOutcome],
                 report: ServingReport) -> None:
        self.outcomes = outcomes
        self.report = report

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self):
        return iter(self.outcomes)

    def __getitem__(self, index):
        return self.outcomes[index]

    def served_results(self) -> list:
        """Search results of served requests, in arrival order."""
        return [o.result for o in self.outcomes if o.served]


class QueryServer:
    """Admission-controlled serving over any search target.

    ``target`` is anything with ``search(expression, k)`` — a session,
    an engine, or a cluster root (clusters execute through the
    resilience layer, so retries/failover/degradation all apply).

    ``service_time`` optionally replaces measured execution time on the
    serving timeline: a callable ``(request, result) -> seconds``. With
    it a serving run is a pure function of the workload — the
    determinism tests pin exactly that. Without it, ``clock`` (default:
    wall clock) measures each request's execution; the serving timeline
    itself never sleeps.

    ``width`` optionally makes a request hold more than one worker from
    dispatch to completion: a callable ``(request) -> workers``, between
    1 and ``config.workers`` (None: every request takes one). Dispatch
    stays strict FCFS — a queued request that does not fit holds back
    every request behind it, as the device's query scheduler does with
    a query that needs chained cores (paper Fig. 4(a)).

    The :func:`~repro.observability.observer.current_observer` of
    the scope :meth:`serve` runs in is told of every admission, every
    request's final :class:`RequestOutcome` (served or shed) and the
    run's :class:`ServingReport` (recording them publishes the
    ``serving.*`` registry metrics); the same scope sees the target's
    own events, down to the engine stages.
    """

    def __init__(self, target, config: Optional[ServingConfig] = None,
                 service_time: Optional[Callable] = None,
                 width: Optional[Callable] = None,
                 clock: Optional[Clock] = None) -> None:
        self._target = target
        self._config = ServingConfig() if config is None else config
        self._service_time = service_time
        self._width = width
        self._clock = WALL_CLOCK if clock is None else clock

    @property
    def config(self) -> ServingConfig:
        return self._config

    @property
    def target(self):
        return self._target

    # ------------------------------------------------------------------
    # Serving loop
    # ------------------------------------------------------------------

    def serve(self, requests: Sequence[Request]) -> ServingResult:
        """Run one open-loop workload to completion.

        Requests are processed in arrival order; the returned outcomes
        are in the same order. The loop is event-driven over the
        requests' arrival instants — it never sleeps, so a long
        simulated timeline costs only the queries' execution time.
        """
        requests, outcomes = self._begin(requests)
        cfg = self._config
        widths = self._widths(requests)
        pending = deque(requests)
        #: (completion_time, dispatch_seq, request_id, width) per
        #: in-flight request.
        busy: list = []
        in_use = 0
        queue: deque = deque()
        dispatch_seq = 0
        depth_samples: List[int] = []
        max_depth = 0

        def shed(request: Request, reason: str) -> None:
            self._shed(outcomes[request.request_id], reason)

        def width_of(request: Request) -> int:
            return 1 if widths is None else widths[request.request_id]

        def dispatch(request: Request, now: float) -> None:
            nonlocal dispatch_seq, in_use
            width = width_of(request)
            in_use += width
            outcome = outcomes[request.request_id]
            outcome.start_seconds = now
            result, seconds = self._execute(request)
            outcome.result = result
            outcome.degraded = bool(getattr(result, "degraded", False))
            outcome.completion_seconds = now + seconds
            heapq.heappush(
                busy, (outcome.completion_seconds, dispatch_seq,
                       request.request_id, width)
            )
            dispatch_seq += 1

        def drain_queue(now: float) -> None:
            """Freed capacity pulls from the queue (deadline-aware),
            stopping at the first queued request that does not fit."""
            while queue and in_use + width_of(queue[0]) <= cfg.workers:
                request = queue.popleft()
                if (cfg.admission == "deadline"
                        and now - request.arrival_seconds
                        > cfg.deadline_seconds):
                    # Already hopeless: executing it cannot meet the
                    # SLO, so the slot goes to a query that still can.
                    shed(request, SHED_DEADLINE)
                    continue
                dispatch(request, now)

        def complete(now: float) -> None:
            nonlocal in_use
            _, _, request_id, width = heapq.heappop(busy)
            in_use -= width
            self._served(outcomes[request_id])
            drain_queue(now)
            depth_samples.append(len(queue))

        def admit(request: Request, now: float) -> None:
            if not queue and in_use + width_of(request) <= cfg.workers:
                self._admitted(0)
                dispatch(request, now)
                return
            if len(queue) >= cfg.queue_capacity:
                if cfg.admission == "deadline":
                    # Evict queued queries whose deadline has passed.
                    expired = [
                        q for q in queue
                        if now - q.arrival_seconds > cfg.deadline_seconds
                    ]
                    for stale in expired:
                        queue.remove(stale)
                        shed(stale, SHED_DEADLINE)
                if len(queue) >= cfg.queue_capacity:
                    if cfg.admission == "shed-oldest" and queue:
                        shed(queue.popleft(), SHED_OLDEST)
                    else:
                        # Includes every policy at queue_capacity=0:
                        # with nothing queued there is nothing older
                        # to shed than the newcomer itself.
                        shed(request, SHED_QUEUE_FULL)
                        return
            queue.append(request)
            self._admitted(len(queue))

        while pending or busy:
            next_arrival = (
                pending[0].arrival_seconds if pending else float("inf")
            )
            next_completion = busy[0][0] if busy else float("inf")
            if busy and next_completion <= next_arrival:
                complete(next_completion)
                continue
            request = pending.popleft()
            admit(request, request.arrival_seconds)
            depth_samples.append(len(queue))
            max_depth = max(max_depth, len(queue))

        return ServingResult(
            *self._finish(requests, outcomes, depth_samples, max_depth))

    # ------------------------------------------------------------------
    # Run skeleton (shared with the planner's windowed loop, which
    # overrides only :meth:`serve`)
    # ------------------------------------------------------------------

    def _begin(self, requests: Sequence[Request]):
        """Arrival-ordered requests and their blank outcome table."""
        requests = sorted(requests,
                          key=lambda r: (r.arrival_seconds, r.request_id))
        if not requests:
            raise ConfigurationError("serving workload is empty")
        outcomes = {
            r.request_id: RequestOutcome(
                request_id=r.request_id, expression=r.expression,
                arrival_seconds=r.arrival_seconds,
            )
            for r in requests
        }
        return requests, outcomes

    def _widths(self, requests: Sequence[Request]
                ) -> Optional[Dict[int, int]]:
        """Each request's worker count, checked before anything runs
        (None when every request takes one worker)."""
        if self._width is None:
            return None
        widths = {}
        for request in requests:
            width = self._width(request)
            if not 1 <= width <= self._config.workers:
                raise ConfigurationError(
                    f"request {request.request_id} needs {width} "
                    f"workers; the server has {self._config.workers} "
                    f"(a width must lie in [1, workers])"
                )
            widths[request.request_id] = width
        return widths

    def _admitted(self, queue_depth: int) -> None:
        obs = current_observer()
        if obs.enabled:
            obs.emit(RequestAdmitted(queue_depth))

    def _shed(self, outcome: RequestOutcome, reason: str) -> None:
        outcome.status = "shed"
        outcome.shed_reason = reason
        current_observer().emit(outcome)

    def _served(self, outcome: RequestOutcome) -> None:
        """Classify a completed request against the SLO and report it."""
        deadline = self._config.deadline_seconds
        if deadline is not None:
            outcome.slo_attained = outcome.latency_seconds <= deadline
        current_observer().emit(outcome)

    def _finish(self, requests: Sequence[Request],
                outcomes: Dict[int, RequestOutcome],
                depth_samples: List[int], max_depth: int):
        """Arrival-ordered outcomes and the run's report."""
        ordered = [outcomes[r.request_id] for r in requests]
        report = build_serving_report(
            ordered, depth_samples, max_depth,
            deadline_seconds=self._config.deadline_seconds,
        )
        current_observer().emit(report)
        return ordered, report

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _execute(self, request: Request):
        """Run the request for real; return (result, service_seconds)."""
        if self._service_time is not None:
            result = execute_request(self._target, request, self._config.k)
            return result, float(self._service_time(request, result))
        start = self._clock.now()
        result = execute_request(self._target, request, self._config.k)
        return result, self._clock.now() - start


def build_serving_report(outcomes: List[RequestOutcome],
                         depth_samples: List[int],
                         max_depth: int,
                         deadline_seconds: Optional[float] = None,
                         ) -> ServingReport:
    """Aggregate per-request outcomes into a :class:`ServingReport`.

    ``outcomes`` must be in arrival order.
    """
    report = ServingReport(deadline_seconds=deadline_seconds)
    report.num_requests = len(outcomes)
    latencies: List[float] = []
    waits: List[float] = []
    last_completion = 0.0
    for outcome in outcomes:
        if outcome.served:
            report.served += 1
            latencies.append(outcome.latency_seconds)
            waits.append(outcome.queue_wait_seconds)
            last_completion = max(last_completion,
                                  outcome.completion_seconds)
            if outcome.degraded:
                report.served_degraded += 1
            if outcome.slo_attained is True:
                report.slo_attained += 1
            elif outcome.slo_attained is False:
                report.slo_violated += 1
        else:
            report.shed += 1
            reason = outcome.shed_reason or "unknown"
            report.shed_by_reason[reason] = (
                report.shed_by_reason.get(reason, 0) + 1
            )
    first_arrival = outcomes[0].arrival_seconds
    last_arrival = outcomes[-1].arrival_seconds
    report.offered_seconds = last_arrival - first_arrival
    # The run spans first arrival to the *last timeline event* — on an
    # all-shed (overload) run that is the final arrival, not zero.
    report.makespan_seconds = (
        max(last_completion, last_arrival) - first_arrival
    )
    if latencies:
        ordered = sorted(latencies)
        report.p50_latency_seconds = percentile(ordered, 0.50)
        report.p95_latency_seconds = percentile(ordered, 0.95)
        report.p99_latency_seconds = percentile(ordered, 0.99)
        report.mean_latency_seconds = sum(latencies) / len(latencies)
        report.mean_queue_wait_seconds = sum(waits) / len(waits)
    if depth_samples:
        report.mean_queue_depth = (
            sum(depth_samples) / len(depth_samples)
        )
    report.max_queue_depth = max_depth
    return report
