"""Profiler: turn execution results into traces and readable reports.

:func:`build_trace` converts one :class:`~repro.core.result.SearchResult`
plus an accelerator timing model into a :class:`QueryTrace`;
:func:`render_trace` and :func:`render_metrics` are the report backends
behind the ``repro-boss trace`` / ``repro-boss metrics`` CLI commands and
replace the ad-hoc prints the benchmarks used to do by reaching into
engine internals.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

from repro.errors import ConfigurationError
from repro.observability.registry import MetricsRegistry
from repro.observability.trace import (
    STAGE_MEMORY,
    QueryTrace,
    Span,
    stage_byte_totals,
    traffic_entries,
)

if TYPE_CHECKING:  # annotation only: core imports this package
    from repro.core.result import SearchResult


def build_trace(model, result: SearchResult, query_id: int = 0,
                engine: Optional[str] = None,
                cores_used: Optional[int] = None) -> QueryTrace:
    """Build the per-stage trace of one query under a timing model.

    ``model`` is an accelerator timing model (it must expose
    ``module_names``, ``_module_cycles``, ``clock_hz``,
    ``memory_seconds`` and ``query_seconds`` — both the BOSS and the IIU
    models do). Span layout is serialized in pipeline order with the
    memory transport span last, so durations are additive.
    """
    names = getattr(model, "module_names", None)
    if names is None or not hasattr(model, "_module_cycles"):
        raise ConfigurationError(
            f"{type(model).__name__} cannot produce a stage trace"
        )
    cycles = model._module_cycles(result)
    if len(cycles) != len(names):
        raise ConfigurationError(
            "timing model stage labels out of sync with cycle vector"
        )

    entries = traffic_entries(result.traffic)
    stage_bytes = stage_byte_totals(entries)

    spans: List[Span] = []
    clock = 0.0
    for name, stage_cycles in zip(names, cycles):
        seconds = stage_cycles / model.clock_hz
        spans.append(Span(
            name=name,
            start_seconds=clock,
            end_seconds=clock + seconds,
            bytes_moved=stage_bytes.get(name, 0),
        ))
        clock += seconds
    memory_seconds = model.memory_seconds(result)
    spans.append(Span(
        name=STAGE_MEMORY,
        start_seconds=clock,
        end_seconds=clock + memory_seconds,
        bytes_moved=0,
    ))
    clock += memory_seconds

    work = result.work
    return QueryTrace(
        query_id=query_id,
        engine=engine or model.name,
        expression=str(result.query),
        query_type=result.query_type,
        num_terms=len(result.query.terms()),
        cores_used=(model.cores_used(result)
                    if cores_used is None else cores_used),
        num_hits=len(result.hits),
        spans=spans,
        latency_seconds=clock,
        pipelined_seconds=model.query_seconds(result),
        interconnect_bytes=result.interconnect_bytes,
        traffic=entries,
        work={f: getattr(work, f) for f in _work_fields(work)},
        blocks_skipped_et=work.blocks_skipped_et,
        blocks_skipped_overlap=work.blocks_skipped_overlap,
    )


def _work_fields(work) -> List[str]:
    from dataclasses import fields

    return [f.name for f in fields(work)]


# ---------------------------------------------------------------------------
# Aggregation over trace batches
# ---------------------------------------------------------------------------

def aggregate_stage_seconds(traces: Iterable[QueryTrace]) -> Dict[str, float]:
    """Summed per-stage busy seconds over a batch of traces."""
    totals: Dict[str, float] = {}
    for trace in traces:
        for span in trace.spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.seconds
    if not totals:
        raise ConfigurationError("no traces to aggregate")
    return totals


def batch_bottleneck(traces: Iterable[QueryTrace]) -> str:
    """Stage with the largest summed busy time across a batch."""
    totals = aggregate_stage_seconds(traces)
    return max(totals, key=totals.get)


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------

def render_trace(trace: QueryTrace) -> str:
    """Per-stage breakdown of one query, bottleneck flagged."""
    us = 1e6
    lines = [
        f"query #{trace.query_id} [{trace.query_type}] on {trace.engine}: "
        f"{trace.expression}",
        f"hits {trace.num_hits}, terms {trace.num_terms}, "
        f"cores {trace.cores_used}",
        f"{'stage':<15}{'time (us)':>12}{'share':>9}{'bytes':>12}",
    ]
    bottleneck = trace.bottleneck
    for span in trace.spans:
        share = (span.seconds / trace.latency_seconds
                 if trace.latency_seconds > 0 else 0.0)
        flag = "  <- bottleneck" if span.name == bottleneck else ""
        lines.append(
            f"{span.name:<15}{span.seconds * us:>12.3f}{share:>8.1%}"
            f"{span.bytes_moved:>12}{flag}"
        )
    lines.append(
        f"{'total':<15}{trace.latency_seconds * us:>12.3f}{'100.0%':>9}"
        f"{trace.total_bytes:>12}"
    )
    lines.append(
        f"pipelined latency {trace.pipelined_seconds * us:.3f} us; "
        f"host link {trace.interconnect_bytes} B; "
        f"skips: {trace.blocks_skipped_et} ET, "
        f"{trace.blocks_skipped_overlap} overlap"
    )
    return "\n".join(lines)


def render_metrics(registry: MetricsRegistry) -> str:
    """Text dump of a metrics registry (the ``metrics`` CLI backend)."""
    text = registry.render()
    return text if text else "(no metrics recorded)"
