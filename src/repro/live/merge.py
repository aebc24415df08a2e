"""Background compaction: tiered merge policy + deterministic scheduler.

Sealing produces many small tier-0 segments; queries fan out across all
of them, so read cost grows with segment count. Compaction trades SCM
*write* bandwidth for read locality, exactly the LSM trade-off: a merge
reads its input segments (sequential ``LD List`` traffic — the payloads
stream once through the codec), drops tombstoned postings, and rewrites
the survivors as one segment on the next tier (sequential ``ST Index``
traffic). The rewrite is byte-identical to a fresh build of the
surviving postings under the same statistics, so compaction converges
the segmented index toward the monolithic layout.

Everything is deterministic: the :class:`MergeScheduler` runs on an
injected :class:`~repro.clock.Clock` (virtual in tests and benchmarks)
and models the device as a single busy resource — each seal or merge
occupies a busy window whose length is
:meth:`~repro.scm.device.MemoryDeviceModel.service_time` of its traffic,
and windows queue back-to-back. That is what makes ingest-heavy mixes
*visible* in serving latency: maintenance windows on a slow-write SCM
device stretch far longer than on DRAM.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.clock import Clock, VirtualClock
from repro.errors import ConfigurationError, InvertedIndexError
from repro.live.segments import Segment, SegmentedIndex, build_segment
from repro.observability.observer import current_observer
from repro.scm.device import OPTANE_NODE_4CH, MemoryDeviceModel
from repro.scm.traffic import AccessClass, AccessPattern, TrafficCounter
from repro.serving.target import MaintenanceTimeline


class MergePlan:
    """One planned compaction: ``inputs`` -> one segment on ``output_tier``."""

    def __init__(self, inputs: Sequence[Segment], output_tier: int) -> None:
        self.inputs = list(inputs)
        self.output_tier = output_tier

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        ids = [segment.segment_id for segment in self.inputs]
        return f"<MergePlan inputs={ids} tier={self.output_tier}>"


class MergePolicy:
    """Tiered compaction: ``fanout`` segments on a tier merge up one.

    Tier 0 holds sealed buffers; a merge of ``fanout`` tier-``t``
    segments produces one tier-``t+1`` segment, so each document is
    rewritten at most once per tier and write amplification is bounded
    by the tier count (logarithmic in corpus size for a fixed fanout).
    """

    def __init__(self, fanout: int = 4) -> None:
        if fanout < 2:
            raise ConfigurationError(
                f"merge fanout must be at least 2, got {fanout}"
            )
        self.fanout = fanout

    def plan(self, segments: Sequence[Segment]) -> Optional[MergePlan]:
        """Next merge to run, or ``None`` when every tier is compacted."""
        by_tier: Dict[int, List[Segment]] = {}
        for segment in segments:
            by_tier.setdefault(segment.tier, []).append(segment)
        for tier in sorted(by_tier):
            candidates = by_tier[tier]
            if len(candidates) >= self.fanout:
                candidates.sort(key=lambda s: s.segment_id)
                return MergePlan(candidates[:self.fanout], tier + 1)
        return None


class MergeRecord:
    """Accounting for one executed merge (or empty-output collapse)."""

    def __init__(self, output_id: Optional[int], tier: int,
                 input_ids: Tuple[int, ...], bytes_read: int,
                 bytes_written: int, started: float,
                 finished: float) -> None:
        self.output_id = output_id
        self.tier = tier
        self.input_ids = input_ids
        self.bytes_read = bytes_read
        self.bytes_written = bytes_written
        self.started = started
        self.finished = finished

    @property
    def seconds(self) -> float:
        return self.finished - self.started

    def publish_metrics(self, registry) -> None:
        tier = str(self.tier)
        registry.counter(
            "live.merges", "background compactions, by output tier"
        ).inc(tier=tier)
        registry.counter(
            "live.merge_read_bytes", "merge input bytes (LD List)"
        ).inc(self.bytes_read)
        registry.counter(
            "live.merge_write_bytes",
            "merge output bytes (ST Index), by output tier",
        ).inc(self.bytes_written, tier=tier)
        registry.counter(
            "live.maintenance_seconds", "modeled device seconds in merges"
        ).inc(self.seconds)


def merge_segments(segmented: SegmentedIndex,
                   inputs: Sequence[Segment],
                   output_tier: int,
                   traffic: Optional[TrafficCounter] = None
                   ) -> Optional[Segment]:
    """Compact ``inputs`` into one new segment (not yet installed).

    Streams every input posting list (charged as sequential ``LD List``
    reads of payload + metadata), drops tombstoned documents, and
    replays the survivors — global docIDs intact — through the normal
    build pipeline, charged as one sequential ``ST Index`` write.
    Returns ``None`` when every input document was deleted.
    """
    traffic = TrafficCounter() if traffic is None else traffic
    combined: Dict[str, List[Tuple[int, int]]] = {}
    doc_lengths: Dict[int, int] = {}
    doc_terms: Dict[int, Tuple[str, ...]] = {}
    for segment in inputs:
        traffic.record(AccessClass.LD_LIST, AccessPattern.SEQUENTIAL,
                       segment.nbytes)
        dead = segment.tombstones
        for doc_id, length in segment.doc_lengths.items():
            if doc_id not in dead:
                doc_lengths[doc_id] = length
                doc_terms[doc_id] = segment.doc_terms[doc_id]
        for term in segment.index.terms:
            posting_list = segment.index.posting_list(term)
            survivors = [
                posting
                for doc_ids, tfs in posting_list.decode_arrays()
                for posting in zip(doc_ids, tfs)
                if posting[0] not in dead
            ]
            if survivors:
                combined.setdefault(term, []).extend(survivors)
    if not combined:
        return None
    for postings in combined.values():
        postings.sort(key=lambda posting: posting[0])
    segment = build_segment(
        segmented.next_segment_id(), output_tier, combined,
        doc_lengths, doc_terms, segmented.stats,
        schemes=segmented.schemes,
    )
    traffic.record(AccessClass.ST_INDEX, AccessPattern.SEQUENTIAL,
                   segment.nbytes)
    return segment


class MergeScheduler(MaintenanceTimeline):
    """Runs the merge policy to quiescence on a modeled device timeline.

    Every seal and merge occupies one window of the device's
    :meth:`~repro.scm.device.MemoryDeviceModel.service_time` for its
    traffic on the scheduler's own
    :class:`~repro.serving.target.MaintenanceTimeline`; the serving
    layer reads ``busy_until`` to model maintenance interference.
    """

    def __init__(self, segmented: SegmentedIndex,
                 device: Optional[MemoryDeviceModel] = None,
                 clock: Optional[Clock] = None,
                 policy: Optional[MergePolicy] = None,
                 traffic: Optional[TrafficCounter] = None) -> None:
        super().__init__(OPTANE_NODE_4CH if device is None else device,
                         VirtualClock() if clock is None else clock)
        self.segmented = segmented
        self.policy = MergePolicy() if policy is None else policy
        #: Shared counter every seal/merge byte lands in (the writer
        #: passes its own so ingest traffic aggregates in one place).
        self.traffic = TrafficCounter() if traffic is None else traffic
        self.records: List[MergeRecord] = []
        #: Segment ids sealed through :meth:`record_seal`, in order.
        self.seals: List[int] = []
        #: ST Index bytes written per output tier (tier 0 = seals).
        self.bytes_written_by_tier: Dict[int, int] = {}

    def record_seal(self, segment: Segment) -> Tuple[float, float]:
        """Account one buffer seal: sequential ST Index write window."""
        seal_traffic = TrafficCounter()
        seal_traffic.record(AccessClass.ST_INDEX,
                            AccessPattern.SEQUENTIAL, segment.nbytes)
        self.traffic.merge(seal_traffic)
        tier_bytes = self.bytes_written_by_tier
        tier_bytes[0] = tier_bytes.get(0, 0) + segment.nbytes
        self.seals.append(segment.segment_id)
        window = self.occupy(self.device.service_time(seal_traffic))
        current_observer().emit(segment)
        return window

    def compact_all(self) -> Optional[MergeRecord]:
        """Force-merge every sealed segment into one (full compaction).

        Converges the segmented index to the monolithic layout in a
        single rewrite — the read-traffic reference point the
        equivalence tests compare against. No-op with fewer than two
        segments.
        """
        segments = list(self.segmented.segments)
        if len(segments) < 2:
            return None
        tier = max(segment.tier for segment in segments) + 1
        return self._run(MergePlan(segments, tier))

    def run_pending(self) -> List[MergeRecord]:
        """Merge until the policy finds nothing to do."""
        executed: List[MergeRecord] = []
        while True:
            plan = self.policy.plan(self.segmented.segments)
            if plan is None:
                return executed
            executed.append(self._run(plan))

    def _run(self, plan: MergePlan) -> MergeRecord:
        self._before_merge(plan)
        merge_traffic = TrafficCounter()
        merged = merge_segments(self.segmented, plan.inputs,
                                plan.output_tier, traffic=merge_traffic)
        self._commit_merge(plan, merged)
        record = self._install_merge(plan, merged, merge_traffic)
        self._after_merge_commit(plan, record)
        return record

    # Durability hooks — no-ops here; DurableMergeScheduler overrides
    # them to persist the output segment, log the merge-commit record,
    # and swap the manifest around the in-memory install.

    def _before_merge(self, plan: MergePlan) -> None:
        """Called before any merge work (durable: ``mid_merge`` probe)."""

    def _commit_merge(self, plan: MergePlan,
                      merged: Optional[Segment]) -> None:
        """Called after compute, before the in-memory install (durable:
        segment file + WAL merge-commit record land here)."""

    def _after_merge_commit(self, plan: MergePlan,
                            record: MergeRecord) -> None:
        """Called after the install (durable: manifest swap + input
        file removal)."""

    def _install_merge(self, plan: MergePlan, merged: Optional[Segment],
                       merge_traffic: TrafficCounter) -> MergeRecord:
        """Install + account one computed (or durably loaded) merge.

        Recovery replay calls this directly with a loaded output
        segment and hand-built traffic, bypassing the durability hooks
        — the accounting, busy-window, observer, and validation steps
        are identical either way, which is what keeps a recovered
        timeline bit-equal to a clean one.
        """
        self.segmented.replace_segments(plan.inputs, merged)
        self.traffic.merge(merge_traffic)
        written = merge_traffic.bytes_for(AccessClass.ST_INDEX)
        if merged is not None:
            tier_bytes = self.bytes_written_by_tier
            tier_bytes[plan.output_tier] = (
                tier_bytes.get(plan.output_tier, 0) + written
            )
        started, finished = self.occupy(
            self.device.service_time(merge_traffic))
        record = MergeRecord(
            output_id=None if merged is None else merged.segment_id,
            tier=plan.output_tier,
            input_ids=tuple(s.segment_id for s in plan.inputs),
            bytes_read=merge_traffic.bytes_for(AccessClass.LD_LIST),
            bytes_written=written,
            started=started,
            finished=finished,
        )
        self.records.append(record)
        current_observer().emit(record)
        from repro.index.validate import validate_segmented

        report = validate_segmented(self.segmented, check_scores=False)
        if not report.ok:
            raise InvertedIndexError(
                "post-merge validation failed: "
                + "; ".join(report.errors[:3])
            )
        return record
