"""Command queue + query scheduler model (paper Figure 4(a)).

Queries arriving from the host are buffered in the device's command
queue; the query scheduler assigns each to free BOSS cores (one core for
up to 4 terms, chained cores beyond that, Section IV-D). This module
simulates that dispatch loop event-by-event to produce what the batch
throughput model cannot: per-query *latency* statistics (mean/p50/p99),
queue depths, and core utilization.

Service times come from the timing model (uncontended per-query time);
bandwidth contention is applied as a global slowdown when the batch's
aggregate memory demand exceeds the device's sequential bandwidth —
the same saturation condition the throughput model uses, so the two
models agree on aggregate behavior.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.batch import percentile as nearest_rank
from repro.core.result import SearchResult
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ScheduledQuery:
    """Completion record for one query."""

    index: int
    arrival: float
    start: float
    finish: float
    cores: int

    @property
    def latency(self) -> float:
        return self.finish - self.arrival


@dataclass(frozen=True)
class ScheduleReport:
    """Aggregate outcome of one scheduler run."""

    completions: List[ScheduledQuery]
    makespan: float
    core_utilization: float
    max_queue_depth: int

    @property
    def latencies(self) -> List[float]:
        return sorted(q.latency for q in self.completions)

    def latency_percentile(self, percentile: float) -> float:
        """Nearest-rank latency at ``percentile`` in [0, 100]."""
        if not 0 <= percentile <= 100:
            raise ConfigurationError("percentile must be in [0, 100]")
        ordered = self.latencies
        if not ordered:
            raise ConfigurationError("no completed queries")
        return nearest_rank(ordered, percentile / 100.0)

    @property
    def mean_latency(self) -> float:
        ordered = self.latencies
        return sum(ordered) / len(ordered) if ordered else 0.0


class QueryScheduler:
    """FCFS dispatch of queries onto the device's BOSS cores."""

    def __init__(self, timing_model, num_cores: int = 8) -> None:
        if num_cores <= 0:
            raise ConfigurationError("need at least one core")
        self._timing = timing_model
        self._num_cores = num_cores

    def run(self, results: Sequence[SearchResult],
            arrival_rate: Optional[float] = None) -> ScheduleReport:
        """Simulate dispatching ``results``.

        ``arrival_rate`` (queries/second) spaces arrivals uniformly;
        ``None`` models a closed batch where everything arrives at t=0.
        """
        if not results:
            raise ConfigurationError("no queries to schedule")

        # Uncontended service times, then a global contention factor if
        # aggregate memory demand would oversubscribe the device.
        service = [self._timing.query_seconds(r) for r in results]
        cores_needed = [min(self._num_cores, self._timing.cores_used(r))
                        for r in results]
        contention = self._contention_factor(results, service)
        service = [s * contention for s in service]

        if arrival_rate is None:
            arrivals = [0.0] * len(results)
        else:
            if arrival_rate <= 0:
                raise ConfigurationError("arrival rate must be positive")
            arrivals = [i / arrival_rate for i in range(len(results))]

        free_cores = self._num_cores
        #: (finish_time, sequence, cores) for in-flight queries.
        in_flight: List = []
        pending: List[int] = []
        completions: List[ScheduledQuery] = []
        busy_core_seconds = 0.0
        now = 0.0
        next_arrival = 0
        max_queue_depth = 0

        while len(completions) < len(results):
            # Admit every query that has arrived by `now`.
            while (next_arrival < len(results)
                   and arrivals[next_arrival] <= now + 1e-15):
                pending.append(next_arrival)
                next_arrival += 1
            max_queue_depth = max(max_queue_depth, len(pending))

            # Dispatch FCFS while cores are free.
            dispatched = False
            while pending and free_cores >= cores_needed[pending[0]]:
                index = pending.pop(0)
                cores = cores_needed[index]
                free_cores -= cores
                finish = now + service[index]
                heapq.heappush(in_flight, (finish, index, cores))
                completions.append(ScheduledQuery(
                    index=index, arrival=arrivals[index], start=now,
                    finish=finish, cores=cores,
                ))
                busy_core_seconds += cores * service[index]
                dispatched = True
            if dispatched:
                continue

            # Advance time: next completion or next arrival.
            candidates = []
            if in_flight:
                candidates.append(in_flight[0][0])
            if next_arrival < len(results):
                candidates.append(arrivals[next_arrival])
            if not candidates:
                break
            now = min(candidates)
            while in_flight and in_flight[0][0] <= now + 1e-15:
                _finish, _index, cores = heapq.heappop(in_flight)
                free_cores += cores

        makespan = max(q.finish for q in completions)
        utilization = (
            busy_core_seconds / (makespan * self._num_cores)
            if makespan > 0 else 0.0
        )
        return ScheduleReport(
            completions=sorted(completions, key=lambda q: q.index),
            makespan=makespan,
            core_utilization=min(1.0, utilization),
            max_queue_depth=max_queue_depth,
        )

    def _contention_factor(self, results: Sequence[SearchResult],
                           service: Sequence[float]) -> float:
        """Global slowdown when memory demand exceeds device bandwidth."""
        total_memory = sum(
            self._timing.memory_seconds(r) for r in results
        )
        total_compute_span = sum(
            s * c for s, c in zip(
                service,
                (min(self._num_cores, self._timing.cores_used(r))
                 for r in results),
            )
        ) / self._num_cores
        if total_compute_span <= 0:
            return 1.0
        return max(1.0, total_memory / total_compute_span)
