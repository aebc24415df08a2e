"""Query-level observability: metrics registry, traces, and profiling.

This package answers "where do the time and the bytes go, per query" —
the accounting the paper's evaluation figures are built on, surfaced as
a first-class API instead of ad-hoc prints:

* :mod:`repro.observability.registry` — counters, gauges and
  explicit-bucket histograms, fed exclusively by the simulator's
  *modeled* time (no wall clock anywhere);
* :mod:`repro.observability.trace` — structured
  :class:`~repro.observability.trace.QueryTrace` records: one span per
  pipeline stage with modeled start/end times, per-stage byte
  attribution across access class x pattern x tier, skip counts, cores;
* :mod:`repro.observability.observer` — the two-method
  :class:`~repro.observability.observer.Observer` threaded through
  every layer (default
  :data:`~repro.observability.observer.NULL_OBSERVER`, a zero-cost
  no-op): ``emit(event)`` for everything that happens, and
  ``on_query_complete`` for the one notification that builds a trace.
  An event is the result/report object its site already holds and
  publishes itself (``event.publish_metrics(registry)``, declared in
  the package that emits it) — this package names no subsystem's
  series;
* :mod:`repro.observability.profiler` — trace construction from results
  plus the report renderers behind ``repro-boss trace`` / ``metrics``.

Two invariants tie the layer to the performance model (pinned by
``tests/observability``): per-stage bytes sum to the traffic counter's
totals, and per-stage modeled times sum to the trace's latency.
"""

from repro.observability.observer import (
    NULL_OBSERVER,
    Observer,
    RecordingObserver,
)
from repro.observability.profiler import (
    aggregate_stage_seconds,
    batch_bottleneck,
    build_trace,
    render_metrics,
    render_trace,
)
from repro.observability.registry import (
    LATENCY_BUCKETS_US,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.observability.trace import (
    ALL_STAGES,
    CLASS_TO_STAGE,
    PIPELINE_STAGES,
    STAGE_MEMORY,
    QueryTrace,
    Span,
    TrafficEntry,
    stage_byte_totals,
    traffic_entries,
)

__all__ = [
    # observer
    "Observer",
    "RecordingObserver",
    "NULL_OBSERVER",
    "LATENCY_BUCKETS_US",
    # registry
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    # trace
    "QueryTrace",
    "Span",
    "TrafficEntry",
    "PIPELINE_STAGES",
    "ALL_STAGES",
    "STAGE_MEMORY",
    "CLASS_TO_STAGE",
    "traffic_entries",
    "stage_byte_totals",
    # profiler
    "build_trace",
    "render_trace",
    "render_metrics",
    "aggregate_stage_seconds",
    "batch_bottleneck",
]
