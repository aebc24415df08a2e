"""Performance model: work metrics, timing, energy, and batch simulation.

The functional engines (BOSS, IIU, Lucene) annotate every query execution
with two measurements:

* a :class:`~repro.scm.traffic.TrafficCounter` of memory bytes moved, per
  access class and pattern;
* a :class:`~repro.sim.metrics.WorkCounters` of discrete work items per
  pipeline module (blocks fetched/skipped, postings decoded, documents
  evaluated, top-k inserts, ...).

The timing model (:mod:`repro.sim.timing`) converts both into seconds for
a given hardware configuration, applying the paper's bottleneck logic:
a fully pipelined core's query time is the maximum of its memory service
time and its slowest module's compute time; multi-core throughput is
limited by the shared device bandwidth.
"""

from repro.sim.metrics import WorkCounters
from repro.sim.timing import (
    BossTimingModel,
    IIUTimingModel,
    LuceneTimingModel,
    ThroughputReport,
)

__all__ = [
    "WorkCounters",
    "BossTimingModel",
    "IIUTimingModel",
    "LuceneTimingModel",
    "ThroughputReport",
    "BossCoreSimulator",
]

from repro.sim.coresim import BossCoreSimulator  # noqa: E402
