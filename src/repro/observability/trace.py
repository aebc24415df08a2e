"""Structured per-query traces: spans, traffic attribution, work.

A :class:`QueryTrace` is the record one ``search()`` leaves behind when a
recording observer is attached: one :class:`Span` per pipeline stage of
the paper's Figure 4(b) core —

    block fetch -> decompression -> merger -> scoring -> top-k

plus a ``memory`` transport span for the SCM service time. Span times
are **modeled** seconds from the timing model (never wall clock), laid
out back to back, so the trace satisfies two invariants the test suite
pins:

* **additivity** — span durations sum to ``latency_seconds``;
* **traffic conservation** — span ``bytes_moved`` sum to the query's
  ``TrafficCounter`` total (every access class is attributed to exactly
  one functional stage; the memory span carries no bytes of its own
  because it *is* the transport for the functional stages' bytes).

``pipelined_seconds`` separately records the latency under the paper's
fully-pipelined model (``max`` over stages plus dispatch overhead) —
that is the number the throughput model uses; the serialized layout
exists so "where did the time go" questions have an additive answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import ConfigurationError
from repro.scm.traffic import AccessClass, AccessPattern, TrafficCounter

#: Canonical stage names, in pipeline order.
STAGE_BLOCK_FETCH = "block-fetch"
STAGE_DECOMPRESSION = "decompression"
STAGE_MERGER = "merger"
STAGE_SCORING = "scoring"
STAGE_TOPK = "top-k"
STAGE_MEMORY = "memory"

PIPELINE_STAGES = (STAGE_BLOCK_FETCH, STAGE_DECOMPRESSION, STAGE_MERGER,
                   STAGE_SCORING, STAGE_TOPK)
ALL_STAGES = PIPELINE_STAGES + (STAGE_MEMORY,)

#: Index-maintenance traffic (live-index seals and merges) is not part
#: of the query pipeline; it gets its own attribution stage.
STAGE_MAINTENANCE = "maintenance"

#: Which functional stage each memory-access class is attributed to.
CLASS_TO_STAGE = {
    AccessClass.LD_LIST: STAGE_BLOCK_FETCH,
    AccessClass.LD_SCORE: STAGE_SCORING,
    AccessClass.LD_INTER: STAGE_MERGER,
    AccessClass.ST_INTER: STAGE_MERGER,
    AccessClass.ST_RESULT: STAGE_TOPK,
    AccessClass.ST_INDEX: STAGE_MAINTENANCE,
}


class TrafficEntry:
    """One (class, pattern) bucket of a query's device traffic.

    A plain ``__slots__`` class rather than a dataclass: traces allocate
    one of these per touched (class, pattern) bucket per query, and the
    slotted layout removes the per-instance ``__dict__`` on the batch
    driver's hot path (``dataclass(slots=True)`` needs Python >= 3.10;
    CI still runs 3.9).
    """

    __slots__ = ("access_class", "pattern", "direction", "tier",
                 "bytes", "accesses", "stage")

    def __init__(self, access_class: str, pattern: str, direction: str,
                 tier: str, bytes: int, accesses: int, stage: str) -> None:
        self.access_class = access_class
        self.pattern = pattern
        #: "read" | "write"
        self.direction = direction
        #: The memory tier that served the bytes; always "scm".
        self.tier = tier
        self.bytes = bytes
        self.accesses = accesses
        #: Functional stage the bytes are attributed to.
        self.stage = stage

    def _key(self) -> tuple:
        return (self.access_class, self.pattern, self.direction,
                self.tier, self.bytes, self.accesses, self.stage)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrafficEntry):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TrafficEntry(access_class={self.access_class!r}, "
            f"pattern={self.pattern!r}, direction={self.direction!r}, "
            f"tier={self.tier!r}, bytes={self.bytes}, "
            f"accesses={self.accesses}, stage={self.stage!r})"
        )

    def to_dict(self) -> dict:
        return {
            "class": self.access_class,
            "pattern": self.pattern,
            "direction": self.direction,
            "tier": self.tier,
            "bytes": self.bytes,
            "accesses": self.accesses,
            "stage": self.stage,
        }


class Span:
    """One pipeline stage's modeled execution window.

    Slotted for the same reason as :class:`TrafficEntry`: six spans per
    query trace add up under the batched driver.
    """

    __slots__ = ("name", "start_seconds", "end_seconds", "bytes_moved")

    def __init__(self, name: str, start_seconds: float,
                 end_seconds: float, bytes_moved: int = 0) -> None:
        if end_seconds < start_seconds:
            raise ConfigurationError(
                f"span {name!r} ends before it starts"
            )
        self.name = name
        self.start_seconds = start_seconds
        self.end_seconds = end_seconds
        #: Device bytes attributed to this stage (0 for on-chip stages).
        self.bytes_moved = bytes_moved

    def _key(self) -> tuple:
        return (self.name, self.start_seconds, self.end_seconds,
                self.bytes_moved)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Span):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Span(name={self.name!r}, start_seconds={self.start_seconds}, "
            f"end_seconds={self.end_seconds}, bytes_moved={self.bytes_moved})"
        )

    @property
    def seconds(self) -> float:
        return self.end_seconds - self.start_seconds

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "start_seconds": self.start_seconds,
            "end_seconds": self.end_seconds,
            "seconds": self.seconds,
            "bytes_moved": self.bytes_moved,
        }


@dataclass
class QueryTrace:
    """Everything one query execution left behind."""

    query_id: int
    engine: str
    expression: str
    query_type: str
    num_terms: int
    cores_used: int
    num_hits: int
    spans: List[Span]
    #: Serialized (additive) latency: sum of span durations.
    latency_seconds: float
    #: Fully-pipelined latency from the timing model (max over stages
    #: plus dispatch overhead) — what the throughput model charges.
    pipelined_seconds: float
    interconnect_bytes: int
    traffic: List[TrafficEntry] = field(default_factory=list)
    #: Work-counter snapshot (field name -> count).
    work: Dict[str, int] = field(default_factory=dict)
    blocks_skipped_et: int = 0
    blocks_skipped_overlap: int = 0

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    @property
    def total_bytes(self) -> int:
        """Device bytes summed over every span (= traffic total)."""
        return sum(span.bytes_moved for span in self.spans)

    @property
    def bottleneck(self) -> str:
        """Stage with the largest modeled busy time."""
        if not self.spans:
            raise ConfigurationError("empty trace has no bottleneck")
        return max(self.spans, key=lambda s: s.seconds).name

    def stage_bytes(self) -> Dict[str, int]:
        return {span.name: span.bytes_moved for span in self.spans}

    def span(self, name: str) -> Span:
        for candidate in self.spans:
            if candidate.name == name:
                return candidate
        raise ConfigurationError(f"trace has no span {name!r}")

    def bytes_by_class(self) -> Dict[str, int]:
        """Byte totals per access class (Figure 15's categories)."""
        out: Dict[str, int] = {}
        for entry in self.traffic:
            out[entry.access_class] = (
                out.get(entry.access_class, 0) + entry.bytes
            )
        return out

    def utilization(self) -> Dict[str, float]:
        """Each stage's share of the additive latency."""
        if self.latency_seconds <= 0:
            raise ConfigurationError("trace has zero latency")
        return {
            span.name: span.seconds / self.latency_seconds
            for span in self.spans
        }

    def to_dict(self) -> dict:
        """JSON-safe representation (the trace schema of the docs)."""
        return {
            "query_id": self.query_id,
            "engine": self.engine,
            "expression": self.expression,
            "query_type": self.query_type,
            "num_terms": self.num_terms,
            "cores_used": self.cores_used,
            "num_hits": self.num_hits,
            "latency_seconds": self.latency_seconds,
            "pipelined_seconds": self.pipelined_seconds,
            "interconnect_bytes": self.interconnect_bytes,
            "bottleneck": self.bottleneck,
            "blocks_skipped_et": self.blocks_skipped_et,
            "blocks_skipped_overlap": self.blocks_skipped_overlap,
            "spans": [span.to_dict() for span in self.spans],
            "traffic": [entry.to_dict() for entry in self.traffic],
            "work": dict(self.work),
        }


def traffic_entries(traffic: TrafficCounter) -> List[TrafficEntry]:
    """Flatten a :class:`TrafficCounter` into per-bucket trace entries,
    every one served by the ``"scm"`` tier."""
    entries: List[TrafficEntry] = []
    for cls in AccessClass:
        for pattern in AccessPattern:
            nbytes = traffic.bytes_for(cls, pattern)
            accesses = traffic.accesses_for(cls, pattern)
            if nbytes == 0 and accesses == 0:
                continue
            entries.append(TrafficEntry(
                access_class=cls.value,
                pattern=pattern.value,
                direction="write" if cls.is_write else "read",
                tier="scm",
                bytes=nbytes,
                accesses=accesses,
                stage=CLASS_TO_STAGE[cls],
            ))
    return entries


def stage_byte_totals(entries: List[TrafficEntry]) -> Dict[str, int]:
    """Per-stage byte attribution of a flattened traffic list."""
    out: Dict[str, int] = {stage: 0 for stage in PIPELINE_STAGES}
    for entry in entries:
        out[entry.stage] = out.get(entry.stage, 0) + entry.bytes
    return out
