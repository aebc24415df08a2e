"""Execution result types shared by all engines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Tuple

from repro.core.query import QueryNode, classify_query
from repro.core.topk import ScoredDocument  # the hit type, re-exported
from repro.scm.traffic import TrafficCounter
from repro.sim.metrics import WorkCounters


def best_hits(scored: Iterable[Tuple[int, float]],
              k: int) -> List[ScoredDocument]:
    """The ``k`` best of ``(doc_id, score)`` pairs by ``(-score,
    doc_id)``: plain tuples are sorted, only the winners become
    :class:`ScoredDocument` objects (negation is exact, so the scores
    come back bit for bit)."""
    ordered = sorted((-score, doc_id) for doc_id, score in scored)
    return [ScoredDocument(doc_id, -negated)
            for negated, doc_id in ordered[:k]]


@dataclass
class SearchResult:
    """Outcome of executing one query on one engine.

    Bundles the functional answer (the ranked ``hits``) with the
    performance-model measurements (``traffic`` and ``work``) plus the
    bytes that crossed the host interconnect for this query.
    """

    query: QueryNode
    hits: List[ScoredDocument]
    traffic: TrafficCounter = field(default_factory=TrafficCounter)
    work: WorkCounters = field(default_factory=WorkCounters)
    #: Bytes moved over the shared host link (results, and for host-side
    #: engines also all loaded data).
    interconnect_bytes: int = 0

    def absorb(self, other: "SearchResult") -> None:
        """Add ``other``'s traffic, work and interconnect bytes to this
        result's: the tally of a query answered in partitions."""
        self.traffic.merge(other.traffic)
        self.work.merge(other.work)
        self.interconnect_bytes += other.interconnect_bytes

    @property
    def query_type(self) -> str:
        """Table II classification (Q1–Q6 or "mixed")."""
        return classify_query(self.query)

    @property
    def doc_ids(self) -> List[int]:
        return [hit.doc_id for hit in self.hits]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<SearchResult {self.query_type} hits={len(self.hits)} "
            f"bytes={self.traffic.total_bytes}>"
        )
