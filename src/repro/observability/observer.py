"""Observer: the single object threaded through the execution stack.

One :class:`Observer` instance travels ``BossSession -> BossAccelerator
-> cluster root / serving loop / live writer / ...`` and is told two
things: :meth:`Observer.emit` receives every *event* — the result,
report or outcome object the emitting site already holds, or a small
frozen dataclass declared beside the site where no such object exists —
and :meth:`Observer.on_query_complete` receives each finished query
(the one notification with state and a return value: it prices the
result with a timing model and hands back the trace).

An event knows how to publish itself: it carries a
``publish_metrics(registry)`` method, declared next to its type in the
package that emits it, exactly like ``MemoryPool.publish_metrics``.
Which series a subsystem publishes is therefore that subsystem's own
business; nothing here names them.

The default, :data:`NULL_OBSERVER`, is a do-nothing singleton with
``enabled = False``. Components hold the observer they were given, call
``emit(obj)`` unguarded where ``obj`` exists anyway, and test
``enabled`` only where an event would have to be built — so an
un-observed run performs no extra work and changes no benchmark number.

:class:`RecordingObserver` is the real implementation: it materializes a
:class:`~repro.observability.trace.QueryTrace` per completed query and
publishes every event into a
:class:`~repro.observability.registry.MetricsRegistry`. All recorded
times are the simulator's modeled times.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.observability.registry import LATENCY_BUCKETS_US, MetricsRegistry
from repro.observability.trace import QueryTrace


class Observer:
    """No-op observer base class; also the null-object implementation."""

    #: Sites that must *construct* an event skip it when this is False.
    enabled = False

    def emit(self, event) -> None:
        """Something happened; ``event`` can ``publish_metrics(registry)``."""

    def on_query_complete(self, result, engine: str = "BOSS",
                          cores_used: int = 1) -> Optional[QueryTrace]:
        """A query finished; ``result`` is the full SearchResult."""


#: Shared do-nothing observer; the default everywhere.
NULL_OBSERVER = Observer()


class RecordingObserver(Observer):
    """Collects per-query traces and publishes registry metrics."""

    enabled = True

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        """Traces are timed with the BOSS and IIU models; every trace is
        kept. ``registry`` lets observers share one metrics registry."""
        self.registry = registry if registry is not None else MetricsRegistry()
        self._models: Optional[Dict[str, object]] = None
        self.traces: List[QueryTrace] = []
        self._next_query_id = 0

    # ------------------------------------------------------------------
    # Convenience views
    # ------------------------------------------------------------------

    @property
    def metrics(self) -> MetricsRegistry:
        return self.registry

    @property
    def last_trace(self) -> Optional[QueryTrace]:
        return self.traces[-1] if self.traces else None

    def model_for(self, engine: str):
        if self._models is None:
            from repro.sim.timing import BossTimingModel, IIUTimingModel

            self._models = {
                "BOSS": BossTimingModel(),
                "IIU": IIUTimingModel(),
            }
        try:
            return self._models[engine]
        except KeyError:
            from repro.errors import ConfigurationError

            known = ", ".join(sorted(self._models))
            raise ConfigurationError(
                f"no timing model registered for engine {engine!r} "
                f"(known: {known})"
            ) from None

    # ------------------------------------------------------------------
    # The two notifications
    # ------------------------------------------------------------------

    def emit(self, event) -> None:
        event.publish_metrics(self.registry)

    def on_query_complete(self, result, engine: str = "BOSS",
                          cores_used: int = 1) -> QueryTrace:
        from repro.observability.profiler import build_trace

        trace = build_trace(
            self.model_for(engine), result,
            query_id=self._next_query_id, engine=engine,
            cores_used=cores_used,
        )
        self._next_query_id += 1
        self.traces.append(trace)
        self._publish(trace)
        return trace

    def _publish(self, trace: QueryTrace) -> None:
        registry = self.registry
        registry.counter("queries.completed", "finished queries").inc(
            engine=trace.engine, qtype=trace.query_type
        )
        registry.histogram(
            "query.latency_us", LATENCY_BUCKETS_US,
            "modeled serialized query latency (us)",
        ).observe(trace.latency_seconds * 1e6, engine=trace.engine)
        registry.histogram(
            "query.pipelined_us", LATENCY_BUCKETS_US,
            "modeled pipelined query latency (us)",
        ).observe(trace.pipelined_seconds * 1e6, engine=trace.engine)
        for entry in trace.traffic:
            registry.counter(
                "scm.bytes", "device bytes by class/pattern/tier"
            ).inc(entry.bytes, cls=entry.access_class,
                  pattern=entry.pattern, tier=entry.tier)
            registry.counter(
                "scm.accesses", "device accesses by class"
            ).inc(entry.accesses, cls=entry.access_class)
        for span in trace.spans:
            registry.counter(
                "pipeline.stage_seconds", "summed modeled stage time"
            ).inc(span.seconds, stage=span.name, engine=trace.engine)
        registry.counter(
            "interconnect.bytes", "host-link bytes"
        ).inc(trace.interconnect_bytes)
        work = trace.work
        for name in ("blocks_fetched", "blocks_skipped_et",
                     "blocks_skipped_overlap", "postings_decoded",
                     "docs_evaluated", "topk_inserts"):
            if name in work:
                registry.counter(
                    f"work.{name}", f"summed {name} over queries"
                ).inc(work[name], engine=trace.engine)
        registry.counter("engine.cores_used", "core-occupancy sum").inc(
            trace.cores_used, engine=trace.engine
        )
