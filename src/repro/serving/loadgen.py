"""Open-loop load generation: seeded arrival processes over query logs.

A *closed-loop* driver (like :func:`repro.batch.run_query_batch`) only
issues the next query once a worker frees up, so it can never observe
queueing: the system sets its own pace. Serving systems are measured
*open loop* — queries arrive on their own schedule whether or not the
server has capacity, which is what exposes queue growth, shedding, and
the latency knee (see ``docs/serving.md``).

This module produces deterministic open-loop workloads: an arrival
process (:class:`PoissonArrivals` for memoryless traffic at a target
rate, :class:`TraceArrivals` to replay a recorded timeline) paired with
a query log (the Zipf-skewed Table II mix from
:class:`repro.workloads.QuerySampler`). Everything is a pure function
of its seed: the same seed replays the same expressions *and* the same
arrival instants, which is what lets tests pin admission and shedding
decisions exactly.

A useful property of :class:`PoissonArrivals`: two processes with the
same seed but different rates draw the same underlying exponential
variates, so their timelines are exact time-rescalings of each other.
An offered-load sweep leans on this — every sweep point replays the
*same* traffic shape, only faster.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.workloads.queries import QuerySampler


@dataclass(frozen=True)
class Request:
    """One request due to arrive at the server at a fixed instant.

    Plain requests are queries; a request carrying ``update`` is a
    mutation for a live (:mod:`repro.live`) target instead — the server
    dispatches it to ``target.apply_update`` rather than ``search``.
    """

    request_id: int
    #: Arrival instant on the serving timeline (seconds from epoch 0).
    arrival_seconds: float
    expression: str
    #: ``None`` for queries; ``(kind, payload)`` for mutations, e.g.
    #: ``("add", tokens)`` or ``("delete_oldest", None)``.
    update: Optional[tuple] = None
    #: Owning tenant, for the I/O planner's per-tenant byte quotas
    #: (:mod:`repro.ioplanner.fairness`); ignored by the plain server.
    tenant: str = "default"


class PoissonArrivals:
    """Memoryless arrivals at ``rate_qps``, seeded and deterministic."""

    def __init__(self, rate_qps: float, seed: int = 0) -> None:
        if rate_qps <= 0:
            raise ConfigurationError(
                f"arrival rate must be positive, got {rate_qps}"
            )
        self.rate_qps = rate_qps
        self.seed = seed

    def times(self, count: int) -> List[float]:
        """The first ``count`` arrival instants, ascending."""
        if count < 0:
            raise ConfigurationError("arrival count must be >= 0")
        rng = random.Random(f"poisson:{self.seed}")
        now = 0.0
        out = []
        for _ in range(count):
            now += rng.expovariate(self.rate_qps)
            out.append(now)
        return out


class TraceArrivals:
    """Replay of an explicit, non-decreasing arrival timeline."""

    def __init__(self, times: Sequence[float]) -> None:
        times = [float(t) for t in times]
        if any(t < 0 for t in times):
            raise ConfigurationError("trace arrivals must be >= 0")
        if any(b < a for a, b in zip(times, times[1:])):
            raise ConfigurationError(
                "trace arrivals must be non-decreasing"
            )
        self._times = times

    def times(self, count: int) -> List[float]:
        if count > len(self._times):
            raise ConfigurationError(
                f"trace holds {len(self._times)} arrivals, "
                f"{count} requested"
            )
        return list(self._times[:count])


def splice_requests(base: Sequence[Request],
                    extras: Sequence[Request]) -> List[Request]:
    """Merge two request streams into one arrival-ordered workload.

    The serving loop admits requests in list order and keys outcomes by
    ``request_id``, so the merged stream is renumbered ``0..n-1`` (the
    sort is stable: a maintenance request spliced at an instant shared
    with a query keeps its relative order). This is how background
    maintenance — live-index mutations, cluster rebalance moves
    (:func:`repro.cluster.rebalance.rebalance_requests`) — rides the
    same open-loop timeline as foreground queries.
    """
    from dataclasses import replace

    merged = sorted([*base, *extras], key=lambda r: r.arrival_seconds)
    return [
        replace(request, request_id=i) for i, request in enumerate(merged)
    ]


def build_requests(expressions: Sequence[str], arrivals) -> List[Request]:
    """Pair a query log with an arrival process, in arrival order."""
    expressions = list(expressions)
    if not expressions:
        raise ConfigurationError("workload has no queries")
    times = arrivals.times(len(expressions))
    return [
        Request(request_id=i, arrival_seconds=t, expression=e)
        for i, (t, e) in enumerate(zip(times, expressions))
    ]


def zipf_workload(terms_by_df: Sequence[str], num_queries: int,
                  rate_qps: float, unique_queries: int = 32,
                  seed: int = 0,
                  update_mix: float = 0.0,
                  tenants: Optional[Sequence[str]] = None
                  ) -> List[Request]:
    """The standard serving workload: Zipf query log, Poisson arrivals.

    ``terms_by_df`` is the vocabulary in descending document-frequency
    order (what :meth:`repro.workloads.Corpus.terms_by_df` returns).
    Arrivals are Poisson at ``rate_qps``, seeded alongside the query
    log: one ``seed`` governs both halves, so the whole workload replays
    from a single number.

    ``update_mix`` replaces that fraction of the log with mutations for
    a live target: three document adds per oldest-document delete
    (steady churn that still grows the corpus). The substitution, the
    synthesized documents, and the arrival timeline are all functions
    of ``seed``, so an update-mix workload replays exactly.

    ``tenants`` optionally tags requests with tenant names for the
    I/O planner's quota scheduler, assigned round-robin by request id
    (deterministic, and every tenant sees the same Zipf mix).
    """
    if not 0.0 <= update_mix <= 1.0:
        raise ConfigurationError(
            f"update mix must be in [0, 1], got {update_mix}"
        )
    sampler = QuerySampler(terms_by_df, seed=seed)
    unique = max(1, min(unique_queries, num_queries))
    expressions = [
        spec.expression
        for spec in sampler.sample_zipf_log(num_queries,
                                            unique_queries=unique)
    ]
    requests = build_requests(expressions,
                              PoissonArrivals(rate_qps, seed=seed))
    if tenants:
        names = list(tenants)
        requests = [
            Request(request_id=r.request_id,
                    arrival_seconds=r.arrival_seconds,
                    expression=r.expression, update=r.update,
                    tenant=names[r.request_id % len(names)])
            for r in requests
        ]
    if update_mix == 0.0:
        return requests
    vocab = list(terms_by_df)
    rng = random.Random(f"updates:{seed}")
    mixed: List[Request] = []
    for request in requests:
        if rng.random() >= update_mix:
            mixed.append(request)
            continue
        if rng.random() < 0.25:
            update = ("delete_oldest", None)
            expression = "<update:delete_oldest>"
        else:
            length = rng.randint(4, 24)
            tokens = tuple(rng.choice(vocab) for _ in range(length))
            update = ("add", tokens)
            expression = "<update:add>"
        mixed.append(Request(
            request_id=request.request_id,
            arrival_seconds=request.arrival_seconds,
            expression=expression,
            update=update,
            tenant=request.tenant,
        ))
    return mixed
