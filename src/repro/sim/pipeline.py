"""Pipeline-stage breakdown: where a BOSS core's cycles go.

The paper's cycle-level simulator can see which module of Figure 4(b)'s
pipeline limits a query; this analyzer recovers the same visibility from
the work counters. For a fully pipelined core, each module's busy time
is independent and the query takes as long as the slowest one — so the
per-module busy times *are* the utilization profile, and the stage with
the largest share is the bottleneck.

It shows, e.g., that union queries are decompression/memory bound
while intersection queries are dominated by the block-fetch/merge path
— the balance the paper's module provisioning (4 decompression + 4
scoring units per core) reflects. (The pipeline-shares table of
``repro.experiments`` reads the observability layer's traces instead.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.core.result import SearchResult
from repro.errors import ConfigurationError

#: Pseudo-stage for the SCM access time (the pipeline's memory side).
MEMORY_STAGE = "memory"


@dataclass(frozen=True)
class PipelineReport:
    """Busy seconds per pipeline stage for one query or batch."""

    engine: str
    stage_seconds: Dict[str, float]
    #: Query (or summed batch) critical-path seconds.
    critical_seconds: float

    @property
    def bottleneck(self) -> str:
        """Stage with the largest busy time."""
        return max(self.stage_seconds, key=self.stage_seconds.get)

    def utilization(self) -> Dict[str, float]:
        """Each stage's busy time as a fraction of the critical path.

        The bottleneck stage reads 1.0; idle stages read near 0 — the
        headroom the paper's module-count choices leave per query type.
        """
        if self.critical_seconds <= 0:
            raise ConfigurationError("empty pipeline report")
        return {
            stage: busy / self.critical_seconds
            for stage, busy in self.stage_seconds.items()
        }

    def merged_with(self, other: "PipelineReport") -> "PipelineReport":
        if other.engine != self.engine:
            raise ConfigurationError("cannot merge across engines")
        stages = dict(self.stage_seconds)
        for stage, busy in other.stage_seconds.items():
            stages[stage] = stages.get(stage, 0.0) + busy
        return PipelineReport(
            engine=self.engine,
            stage_seconds=stages,
            critical_seconds=self.critical_seconds
            + other.critical_seconds,
        )


def analyze_pipeline(model, result: SearchResult) -> PipelineReport:
    """Stage breakdown of one query under an accelerator timing model.

    ``model`` must expose ``module_names``, ``_module_cycles``,
    ``clock_hz`` and ``memory_seconds`` — both accelerator models do.
    """
    cycles = model._module_cycles(result)
    names = model.module_names
    if len(cycles) != len(names):
        raise ConfigurationError(
            "timing model stage labels out of sync with cycle vector"
        )
    stage_seconds = {
        name: c / model.clock_hz for name, c in zip(names, cycles)
    }
    stage_seconds[MEMORY_STAGE] = model.memory_seconds(result)
    critical = max(max(stage_seconds.values()), 1e-18)
    return PipelineReport(
        engine=model.name,
        stage_seconds=stage_seconds,
        critical_seconds=critical,
    )


def analyze_batch(model,
                  results: Sequence[SearchResult]) -> PipelineReport:
    """Summed stage breakdown over a batch (busy-time totals)."""
    if not results:
        raise ConfigurationError("no queries to analyze")
    reports: List[PipelineReport] = [
        analyze_pipeline(model, r) for r in results
    ]
    merged = reports[0]
    for report in reports[1:]:
        merged = merged.merged_with(report)
    return merged
