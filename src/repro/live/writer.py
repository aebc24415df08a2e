"""Ingest front-end: buffer thresholds, seal/merge driving, accounting.

:class:`LiveIndexWriter` is the single entry point for mutations. It
owns a :class:`~repro.live.segments.SegmentedIndex`, seals the write
buffer when it fills, immediately runs the merge policy to quiescence,
and aggregates every maintenance byte in one
:class:`~repro.scm.traffic.TrafficCounter` — which makes the headline
numbers one property access away:

* ``write_amplification`` — total ``ST Index`` bytes over tier-0 seal
  bytes (1.0 until the first compaction, growing with merge depth);
* ``bytes_written_by_tier`` — where the rewrite traffic went;
* ``scheduler.busy_until`` — when the modeled device drains.

:class:`LiveServingTarget` puts the writer behind the serving layer's
:class:`~repro.serving.target.ServingTarget` protocol. Updates advance
the shared virtual clock to the request's arrival instant before
running, so maintenance busy-windows land deterministically on the
serving timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.clock import VirtualClock
from repro.errors import ConfigurationError
from repro.live.merge import MergePolicy, MergeScheduler
from repro.live.segments import Segment, SegmentedIndex
from repro.observability.observer import current_observer
from repro.scm.device import MemoryDeviceModel
from repro.scm.traffic import AccessClass, TrafficCounter
from repro.serving.target import TimelineTarget


@dataclass
class UpdateResult:
    """Outcome of one applied mutation (the serving-layer ``result``).

    ``modeled_seconds`` is the maintenance device time this update
    *added* (seal + any triggered merges); most adds cost zero because
    they only touch the DRAM buffer.
    """

    kind: str
    doc_id: Optional[int] = None
    sealed_segment_id: Optional[int] = None
    merges_run: int = 0
    modeled_seconds: float = 0.0
    #: Mirrors SearchResult so generic serving code can iterate hits.
    hits: Tuple = field(default_factory=tuple)


@dataclass(frozen=True)
class LiveState:
    """Live-index occupancy snapshot after a mutation (observer event)."""

    buffered_docs: int
    buffered_bytes: int
    num_segments: int
    write_amplification: float

    def publish_metrics(self, registry) -> None:
        registry.gauge(
            "live.buffer_docs", "documents in the write buffer"
        ).set(self.buffered_docs)
        registry.gauge(
            "live.buffer_bytes", "modeled write-buffer footprint"
        ).set(self.buffered_bytes)
        registry.gauge(
            "live.segments", "sealed segments currently live"
        ).set(self.num_segments)
        registry.gauge(
            "live.write_amplification",
            "total ST Index bytes over tier-0 seal bytes",
        ).set(self.write_amplification)


class LiveIndexWriter:
    """Drives ingest: buffered adds/deletes, seals, background merges."""

    def __init__(self, device: Optional[MemoryDeviceModel] = None,
                 policy: Optional[MergePolicy] = None,
                 schemes: Optional[Sequence[str]] = None,
                 buffer_docs: int = 256) -> None:
        index = SegmentedIndex(schemes=schemes, buffer_docs=buffer_docs)
        self.index = index
        self.clock = VirtualClock()
        #: Every maintenance byte (seal writes, merge reads + writes).
        self.traffic = TrafficCounter()
        self.scheduler = self._make_scheduler(index=index, device=device,
                                              policy=policy)

    def _make_scheduler(self, *, index, device, policy) -> MergeScheduler:
        """Scheduler factory — the durable writer overrides this to
        return a :class:`~repro.live.durable.DurableMergeScheduler`."""
        return MergeScheduler(index, device=device, clock=self.clock,
                              policy=policy, traffic=self.traffic)

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------

    def add_document(self, tokens: Sequence[str]) -> int:
        """Buffer one document, sealing when the buffer trips a bound."""
        doc_id = self.index.add_document(tokens)
        if self.index.memseg.full:
            self.seal()
        self._publish_state()
        return doc_id

    def delete_document(self, doc_id: int) -> None:
        self.index.delete_document(doc_id)
        self._publish_state()

    def delete_oldest(self) -> Optional[int]:
        """Delete the lowest live docID (sliding-window churn)."""
        victim = self.index.oldest_live_doc()
        if victim is None:
            return None
        # Route through delete_document so overrides (the durable
        # writer's WAL append) see every deletion path.
        self.delete_document(victim)
        return victim

    def seal(self) -> Optional[Segment]:
        """Seal the buffer now and compact to policy quiescence."""
        segment = self.index.seal()
        if segment is None:
            return None
        self.scheduler.record_seal(segment)
        self.scheduler.run_pending()
        self._publish_state()
        return segment

    def flush(self) -> Optional[Segment]:
        """Alias for :meth:`seal` (external callers draining the buffer)."""
        return self.seal()

    def apply_update(self, update: Tuple[str, object]) -> UpdateResult:
        """Apply one serving-layer update ``(kind, payload)``.

        Kinds: ``("add", tokens)`` and ``("delete_oldest", None)``.
        """
        kind = update[0]
        busy_before = self.scheduler.busy_seconds
        merges_before = len(self.scheduler.records)
        seals_before = len(self.scheduler.seals)
        doc_id: Optional[int] = None
        sealed: Optional[int] = None
        if kind == "add":
            doc_id = self.add_document(update[1])
        elif kind == "delete_oldest":
            doc_id = self.delete_oldest()
        else:
            raise ConfigurationError(f"unknown update kind {kind!r}")
        if len(self.scheduler.seals) > seals_before:
            sealed = self.scheduler.seals[-1]
        return UpdateResult(
            kind=kind,
            doc_id=doc_id,
            sealed_segment_id=sealed,
            merges_run=len(self.scheduler.records) - merges_before,
            modeled_seconds=self.scheduler.busy_seconds - busy_before,
        )

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    @property
    def sealed_bytes(self) -> int:
        """Tier-0 bytes: data written because it was ingested."""
        return self.scheduler.bytes_written_by_tier.get(0, 0)

    @property
    def index_write_bytes(self) -> int:
        """Every ``ST Index`` byte (seals + merge rewrites)."""
        return self.traffic.bytes_for(AccessClass.ST_INDEX)

    @property
    def write_amplification(self) -> float:
        """Total index writes over tier-0 writes (1.0 = no compaction
        yet; 0.0 before the first seal)."""
        sealed = self.sealed_bytes
        if sealed == 0:
            return 0.0
        return self.index_write_bytes / sealed

    @property
    def bytes_written_by_tier(self) -> Dict[int, int]:
        return dict(self.scheduler.bytes_written_by_tier)

    def _publish_state(self) -> None:
        obs = current_observer()
        if not obs.enabled:
            return
        obs.emit(LiveState(
            buffered_docs=len(self.index.memseg),
            buffered_bytes=self.index.memseg.approx_bytes,
            num_segments=self.index.num_segments,
            write_amplification=self.write_amplification,
        ))


class LiveServingTarget(TimelineTarget):
    """A :class:`LiveIndexWriter` behind the
    :class:`~repro.serving.target.ServingTarget` protocol.

    Queries go straight to the segmented index; update requests first
    advance the shared virtual clock to their arrival instant, so the
    maintenance busy-window a seal or merge opens starts exactly there
    — repeatable run to run on the merge scheduler's timeline.
    """

    def __init__(self, writer: LiveIndexWriter) -> None:
        self.writer = writer
        self.timeline = writer.scheduler

    def search(self, expression, k: Optional[int] = None):
        return self.writer.index.search(expression, k=k)

    def apply_update(self, request) -> UpdateResult:
        self.timeline.advance_to_arrival(request)
        return self.writer.apply_update(request.update)
