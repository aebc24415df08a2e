"""What every workload gives the runner, and the modeled-side maths.

A workload (a *case*) has three phases, driven by ``run.py``:

* ``setup(seed)`` — generate inputs from the seed, build the system
  under test, run one warm-up pass. Timed as ``setup_s``.
* ``modeled()`` — execute every operation of the stream once. Gives
  every exact (modeled) metric, every count and the results the
  correctness oracle checks.
* ``run_pass(context)`` — one host pass: a pinned number of
  operations (``pass_ops``), the stream's round 0. ``prepare_pass``
  (optional) builds what a pass consumes, outside the timed region.

``trace(tracer, modeled)`` replays the modeled-phase operations with a
span around every call into a layer and returns that workload's
per-layer metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.scm.traffic import AccessClass, AccessPattern, TrafficCounter

from method import percentile
from tracing import NULL_TRACER

#: Top-k of every query. The corpora are laptop-scale stand-ins, so k
#: is scaled with them exactly as ``benchmarks/conftest.py`` does: the
#: paper pairs k=1000 with lists of millions of postings; k=10 against
#: lists of tens of thousands keeps the k-to-block-count ratio, which
#: governs early termination, in the paper's regime.
K = 10

#: ``scm.bytes.*`` metric suffix of each access class.
CLASS_SUFFIX = {
    AccessClass.LD_LIST: "ld_list",
    AccessClass.LD_SCORE: "ld_score",
    AccessClass.LD_INTER: "ld_inter",
    AccessClass.ST_INTER: "st_inter",
    AccessClass.ST_RESULT: "st_result",
    AccessClass.ST_INDEX: "st_index",
}


@dataclass
class Modeled:
    """Outcome of one modeled phase."""

    #: Operations attempted / failed (raised, shed, refused, degraded).
    attempted: int
    failed: int
    #: Modeled latency of each measured operation, simulated µs.
    latencies_us: List[float]
    #: Every byte the simulated device moved, all access classes.
    traffic: TrafficCounter
    #: Simulated operations per simulated second (see README per case).
    modeled_qps: float
    #: Per-operation results, for the oracle and the per-layer counts.
    results: list = field(default_factory=list)

    def end_to_end(self) -> Dict[str, float]:
        ordered = sorted(self.latencies_us)
        return {
            "modeled_qps": self.modeled_qps,
            "modeled_p50_us": percentile(ordered, 0.50),
            "modeled_p99_us": percentile(ordered, 0.99),
            "scm_bytes_per_op": self.traffic.total_bytes / self.attempted,
        }

    def scm_layer(self) -> Dict[str, float]:
        """``scm.*``: traffic per op by class; sums to scm_bytes_per_op."""
        by_class = self.traffic.by_class()
        out = {
            f"scm.bytes.{suffix}": by_class.get(cls, 0) / self.attempted
            for cls, suffix in CLASS_SUFFIX.items()
        }
        total = self.traffic.total_bytes
        out["scm.seq_fraction"] = (
            self.traffic.bytes_for(pattern=AccessPattern.SEQUENTIAL) / total
        )
        return out


def ranking(hits, digits: Optional[int] = None, id_map=None) -> list:
    """A hit list as comparable ``(doc_id, score)`` pairs."""
    return [
        (hit.doc_id if id_map is None else id_map[hit.doc_id],
         hit.score if digits is None else round(hit.score, digits))
        for hit in hits
    ]


def same_up_to_ties(ours: list, oracle: list) -> bool:
    """Whether two rounded rankings agree, letting tied documents swap.

    An index assembled in another order sums a document's term scores
    in another order, so two documents a last bit apart may trade
    places, or trade the last place with a document tied just outside
    the top k. Scores must match position by position; documents must
    match as sets above the lowest score.
    """
    if [score for _, score in ours] != [score for _, score in oracle]:
        return False
    if not ours:
        return True
    lowest = ours[-1][1]
    return (sorted(hit for hit in ours if hit[1] > lowest)
            == sorted(hit for hit in oracle if hit[1] > lowest))


class Case:
    """Base class of the six workloads."""

    name = ""
    #: One line: why the workload exists (goes into BENCHMARK.json).
    why = ""
    #: Size parameters; ``SMOKE`` overrides ``FULL`` for the self-test
    #: and for the per-layer numbers other workloads' traced runs borrow.
    FULL: Dict[str, object] = {}
    SMOKE: Dict[str, object] = {}
    #: Set by subclasses that must build something before every pass.
    prepare_pass = None

    def __init__(self, smoke: bool = False, workdir: str = ".") -> None:
        self.p = dict(self.FULL, **(self.SMOKE if smoke else {}))
        self.workdir = workdir
        self.pass_ops = 0

    def setup(self, seed: int, tracer=NULL_TRACER) -> None:
        raise NotImplementedError

    def modeled(self) -> Modeled:
        raise NotImplementedError

    def check(self, modeled: Modeled) -> int:
        """Operations of an oracle sample whose ranking is wrong."""
        raise NotImplementedError

    def run_pass(self, context) -> None:
        raise NotImplementedError

    def trace(self, tracer, modeled: Modeled) -> Dict[str, float]:
        raise NotImplementedError

    def close(self) -> None:
        """Remove whatever ``setup`` left on disk."""
