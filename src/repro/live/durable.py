"""Durable live index: WAL-backed writer + deterministic crash recovery.

:class:`DurableLiveIndexWriter` is a :class:`~repro.live.writer.
LiveIndexWriter` whose every mutation passes a commit protocol over a
*WAL directory*::

    wal.log            append-only op log (repro.live.wal)
    MANIFEST.json      committed segment set   (repro.live.manifest)
    seg-XXXXXXXX.seg   one durable file per live segment (segfile)

**Commit protocol.** Adds and deletes are logged before the in-memory
state advances. A seal writes the segment file (atomic rename), then
appends the ``seal`` record — the WAL append *is* the commit point —
then accounts the seal and swaps the manifest. A merge likewise: output
file, ``merge`` record, in-memory install, manifest swap, input-file
removal. A crash at any boundary therefore leaves either a committed
state or a committed state plus orphan files/torn WAL tail, both of
which :func:`recover` repairs.

**Recovery.** :func:`recover` scans the WAL to its last valid record,
truncates any torn tail, and replays the full log against a fresh
writer: adds and deletes re-execute directly; seal/merge commits load
their durable segment files (checksum-verified; a missing or damaged
file falls back to a deterministic rebuild — the build pipeline is a
pure function of the op log). Replay re-runs the exact accounting of
the original run — WAL frame charges, manifest bytes, seal/merge
busy-windows — so a recovered writer's traffic counters, tier ledger,
and scheduler timeline are *equal* to a never-crashed writer's at the
same log position. Recovery finishes interrupted maintenance (a full
buffer whose seal died, pending merges the policy still sees), sweeps
orphan files, and checkpoints the manifest.

**Metering.** WAL frames and manifest writes are charged as sequential
``ST Index`` traffic in the writer's counter (durability rides the
device's sequential-write path; no scheduler busy-windows of their
own). Segment *files* are the durable form of the already-metered
seal/merge writes — not charged twice. Recovery's own I/O (log scan,
segment loads, checkpoint) lands in a separate counter on the
:class:`RecoveryReport`, priced by the device model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from repro.errors import InvertedIndexError
from repro.faults import CrashSchedule
from repro.index.bm25 import BM25Parameters
from repro.live.manifest import (
    MANIFEST_NAME,
    load_manifest,
    manifest_payload,
    serialize_manifest,
    write_manifest,
)
from repro.live.merge import (
    MergePlan,
    MergePolicy,
    MergeScheduler,
    merge_segments,
)
from repro.live.segfile import (
    load_segment,
    save_segment,
    segment_file_name,
)
from repro.live.segments import Segment
from repro.live.wal import (
    AddRecord,
    DeleteRecord,
    MergeCommitRecord,
    SealRecord,
    WAL_MAGIC,
    WalRecord,
    WriteAheadLog,
    frame_record,
    read_wal,
)
from repro.live.writer import LiveIndexWriter
from repro.observability.observer import NULL_OBSERVER, Observer
from repro.scm.traffic import AccessClass, AccessPattern, TrafficCounter

WAL_NAME = "wal.log"


class DurableMergeScheduler(MergeScheduler):
    """Merge scheduler that routes every compaction through the commit
    protocol of its owning :class:`DurableLiveIndexWriter`."""

    def __init__(self, writer: "DurableLiveIndexWriter", *args,
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._writer = writer

    def _before_merge(self, plan: MergePlan) -> None:
        self._writer.crash.check("mid_merge")

    def _commit_merge(self, plan: MergePlan,
                      merged: Optional[Segment]) -> None:
        writer = self._writer
        if merged is not None:
            writer._write_segment_file(merged)
        writer.wal.append(MergeCommitRecord(
            input_ids=tuple(s.segment_id for s in plan.inputs),
            output_id=None if merged is None else merged.segment_id,
            output_tier=plan.output_tier,
        ))
        writer.crash.check("after_merge_pre_commit")

    def _after_merge_commit(self, plan: MergePlan, record) -> None:
        self._writer._write_manifest()
        self._writer._remove_segment_files(record.input_ids)


class DurableLiveIndexWriter(LiveIndexWriter):
    """A live-index writer whose state survives process death.

    Construction on a fresh directory creates the WAL and the version-0
    manifest; construction on a directory that already holds a WAL is
    refused — go through :func:`recover` (or
    :func:`recover_live_index`), which rebuilds in-memory state first.

    ``crash_schedule`` arms the deterministic kill-points
    (:data:`repro.faults.KILL_POINTS`); ``fsync`` extends durability
    from process death (the modeled crash) to power loss.
    """

    def __init__(self, wal_dir: Union[str, Path], *,
                 device=None, clock=None,
                 policy: Optional[MergePolicy] = None,
                 params=None, schemes: Optional[Sequence[str]] = None,
                 buffer_docs: int = 256,
                 buffer_bytes: Optional[int] = None,
                 validate: bool = True,
                 observer: Observer = NULL_OBSERVER,
                 crash_schedule: Optional[CrashSchedule] = None,
                 fsync: bool = False,
                 _existing_wal: Optional[Tuple[int, int]] = None) -> None:
        self.wal_dir = Path(wal_dir)
        self.wal_dir.mkdir(parents=True, exist_ok=True)
        self.crash = (CrashSchedule() if crash_schedule is None
                      else crash_schedule)
        self._fsync = fsync
        self.manifest_writes = 0
        #: Total manifest bytes charged to this writer's traffic.
        self.manifest_bytes = 0
        policy = MergePolicy() if policy is None else policy
        effective_params = (BM25Parameters() if params is None
                            else params)
        #: Configuration snapshot the manifest persists; recovery reads
        #: it back so a recovered writer replays with identical bounds.
        self.config = {
            "schemes": list(schemes) if schemes is not None else None,
            "buffer_docs": buffer_docs,
            "buffer_bytes": buffer_bytes,
            "fanout": policy.fanout,
            "k1": effective_params.k1,
            "b": effective_params.b,
        }
        super().__init__(
            device=device, clock=clock, policy=policy, params=params,
            schemes=schemes, buffer_docs=buffer_docs,
            buffer_bytes=buffer_bytes, validate=validate,
            observer=observer,
        )
        self.wal = WriteAheadLog(
            self.wal_dir / WAL_NAME, traffic=self.traffic,
            observer=observer, crash=self.crash, fsync=fsync,
            _existing=_existing_wal,
        )
        if _existing_wal is None:
            self._write_manifest()

    def _make_scheduler(self, *, index, device, policy, validate,
                        observer) -> MergeScheduler:
        return DurableMergeScheduler(
            self, index, device=device, clock=self.clock, policy=policy,
            traffic=self.traffic, validate=validate, observer=observer,
        )

    @property
    def manifest_path(self) -> Path:
        return self.wal_dir / MANIFEST_NAME

    # ------------------------------------------------------------------
    # Mutations (log first, then apply)
    # ------------------------------------------------------------------

    def add_document(self, tokens: Sequence[str]) -> int:
        token_list = list(tokens)
        if not token_list:
            # Reject *before* logging: the WAL must only hold records
            # that replay cleanly.
            raise InvertedIndexError("cannot index an empty document")
        expected = self.index.stats.id_space
        self.wal.append(AddRecord(expected, tuple(token_list)))
        doc_id = super().add_document(token_list)
        if doc_id != expected:  # pragma: no cover - structural invariant
            raise InvertedIndexError(
                f"docID {doc_id} allocated, WAL logged {expected}"
            )
        return doc_id

    def delete_document(self, doc_id: int) -> None:
        if not self.index.stats.is_live(doc_id):
            raise InvertedIndexError(
                f"docID {doc_id} not in the live index"
            )
        self.wal.append(DeleteRecord(doc_id))
        super().delete_document(doc_id)

    def seal(self) -> Optional[Segment]:
        if len(self.index.memseg) == 0:
            return None
        self.crash.check("before_seal")
        segment = self.index.seal()
        self._write_segment_file(segment)
        self.wal.append(SealRecord(segment.segment_id))
        self.crash.check("after_seal_pre_manifest")
        self.scheduler.record_seal(segment)
        self._write_manifest()
        self.scheduler.run_pending()
        self._publish_state()
        return segment

    def close(self) -> None:
        """Release the WAL handle (buffered docs stay recoverable —
        their adds are already logged)."""
        self.wal.close()

    # ------------------------------------------------------------------
    # Durable-state plumbing
    # ------------------------------------------------------------------

    def _write_segment_file(self, segment: Segment) -> int:
        return save_segment(
            segment, self.wal_dir / segment_file_name(segment.segment_id)
        )

    def _remove_segment_files(self, segment_ids) -> None:
        for segment_id in segment_ids:
            path = self.wal_dir / segment_file_name(segment_id)
            if path.exists():
                path.unlink()

    def _manifest_payload(self, wal_records: Optional[int] = None) -> dict:
        return manifest_payload(
            self.index.segments, self.index._next_segment_id,
            (self.wal.records_logged if wal_records is None
             else wal_records),
            self.config,
        )

    def _write_manifest(self, charge: bool = True,
                        wal_records: Optional[int] = None) -> int:
        """Atomically publish the manifest; ``wal_records`` overrides
        the recorded log position — recovery replay passes the
        *historical* position so each re-written manifest is
        byte-identical (and byte-accounted) to the one the original
        run published at that commit."""
        nbytes = write_manifest(self.manifest_path,
                                self._manifest_payload(wal_records))
        if charge:
            self._account_manifest(nbytes)
        return nbytes

    def _account_manifest(self, nbytes: int) -> None:
        self.manifest_writes += 1
        self.manifest_bytes += nbytes
        self.traffic.record(AccessClass.ST_INDEX,
                            AccessPattern.SEQUENTIAL, nbytes)
        if self._observer.enabled:
            self._observer.emit(ManifestWrite(nbytes))


@dataclass(frozen=True)
class ManifestWrite:
    """The segment manifest was atomically replaced, or its write
    re-charged during recovery replay (observer event)."""

    nbytes: int

    def publish_metrics(self, registry) -> None:
        registry.counter(
            "live.manifest.writes", "atomic manifest replacements"
        ).inc()
        registry.counter(
            "live.manifest.bytes",
            "sequential ST Index bytes from manifest writes",
        ).inc(self.nbytes)


@dataclass
class RecoveryReport:
    """What one :func:`recover` run did, and what it cost.

    ``traffic`` is recovery's *own* I/O (WAL scan, manifest reads,
    segment-file loads, checkpoint write) — distinct from the writer's
    counter, which replay rebuilds to match the original run.
    ``modeled_seconds`` prices that traffic on the writer's device.
    """

    records_replayed: int = 0
    #: add/delete records among them — the op-stream resume position.
    mutations_replayed: int = 0
    seals_replayed: int = 0
    merges_replayed: int = 0
    segments_loaded: int = 0
    segments_rebuilt: int = 0
    #: Torn-tail disposition of the scanned WAL (None = clean).
    torn: Optional[str] = None
    torn_bytes: int = 0
    wal_bytes_scanned: int = 0
    orphans_removed: int = 0
    manifest_damaged: bool = False
    #: Maintenance recovery finished that the crash interrupted.
    completion_seals: int = 0
    completion_merges: int = 0
    traffic: TrafficCounter = field(default_factory=TrafficCounter)
    modeled_seconds: float = 0.0

    def publish_metrics(self, registry) -> None:
        registry.counter(
            "live.recovery.runs", "crash recoveries completed"
        ).inc(torn="none" if self.torn is None else self.torn)
        registry.counter(
            "live.recovery.records_replayed", "WAL records replayed"
        ).inc(self.records_replayed)
        segments = registry.counter(
            "live.recovery.segments", "segment dispositions during replay"
        )
        segments.inc(self.segments_loaded, disposition="loaded")
        segments.inc(self.segments_rebuilt, disposition="rebuilt")
        registry.counter(
            "live.recovery.torn_bytes", "WAL tail bytes truncated"
        ).inc(self.torn_bytes)
        registry.counter(
            "live.recovery.orphans_removed",
            "uncommitted segment files swept",
        ).inc(self.orphans_removed)
        registry.gauge(
            "live.recovery.last_modeled_seconds",
            "modeled device seconds of the last recovery's own I/O",
        ).set(self.modeled_seconds)


class _SegmentLoader:
    """Loads checksum-valid durable segments during replay; damage or
    absence degrades to ``None`` (deterministic rebuild)."""

    def __init__(self, directory: Path, traffic: TrafficCounter,
                 report: RecoveryReport) -> None:
        self.directory = directory
        self.traffic = traffic
        self.report = report

    def load(self, segment_id: int) -> Optional[Segment]:
        path = self.directory / segment_file_name(segment_id)
        if not path.exists():
            return None
        try:
            segment, nbytes = load_segment(path)
        except InvertedIndexError:
            return None
        if segment.segment_id != segment_id:
            return None
        self.traffic.record(AccessClass.LD_LIST,
                            AccessPattern.SEQUENTIAL, nbytes)
        return segment


def _replay_records(writer: LiveIndexWriter,
                    records: Sequence[WalRecord],
                    loader: Optional[_SegmentLoader],
                    crash: Optional[CrashSchedule],
                    report: RecoveryReport,
                    durable: bool) -> None:
    """Drive ``writer`` through a WAL record stream.

    With ``durable=True`` the writer is a :class:`DurableLiveIndexWriter`
    under recovery: every record's frame and every commit's manifest are
    re-charged (and the manifest re-written) so the writer's accounting
    lands exactly where the original run left it. With ``durable=False``
    this is the *clean replayer* the differential oracle compares
    against: a plain in-memory writer, no charges, every segment rebuilt.
    """
    if durable:
        # The version-0 manifest the original writer wrote at creation.
        writer._account_manifest(len(serialize_manifest(
            manifest_payload([], 0, 0, writer.config)
        )))
    for position, record in enumerate(records, start=1):
        if durable:
            writer.wal.charge(record, len(frame_record(record)))
        if isinstance(record, AddRecord):
            doc_id = writer.index.add_document(list(record.tokens))
            if doc_id != record.doc_id:
                raise InvertedIndexError(
                    f"replay allocated docID {doc_id}, WAL recorded "
                    f"{record.doc_id}"
                )
            report.mutations_replayed += 1
        elif isinstance(record, DeleteRecord):
            writer.index.delete_document(record.doc_id)
            report.mutations_replayed += 1
        elif isinstance(record, SealRecord):
            segment = loader.load(record.segment_id) if loader else None
            if segment is not None:
                writer.index.install_recovered_seal(segment)
                report.segments_loaded += 1
            else:
                segment = writer.index.seal()
                if (segment is None
                        or segment.segment_id != record.segment_id):
                    raise InvertedIndexError(
                        f"seal replay diverged at segment "
                        f"{record.segment_id}"
                    )
                report.segments_rebuilt += 1
                if durable:
                    writer._write_segment_file(segment)
            writer.scheduler.record_seal(segment)
            if durable:
                writer._write_manifest(wal_records=position)
            report.seals_replayed += 1
            if crash is not None:
                crash.check("mid_recovery")
        elif isinstance(record, MergeCommitRecord):
            _replay_merge(writer, record, loader, report, durable,
                          position)
            report.merges_replayed += 1
            if crash is not None:
                crash.check("mid_recovery")
        else:  # pragma: no cover - decode_payload rejects unknown ops
            raise InvertedIndexError(f"unknown WAL record {record!r}")
        report.records_replayed += 1


def _replay_merge(writer: LiveIndexWriter, record: MergeCommitRecord,
                  loader: Optional[_SegmentLoader],
                  report: RecoveryReport, durable: bool,
                  position: int = 0) -> None:
    segmented = writer.index
    by_id = {s.segment_id: s for s in segmented.segments}
    missing = [i for i in record.input_ids if i not in by_id]
    if missing:
        raise InvertedIndexError(
            f"merge replay inputs {missing} not installed"
        )
    inputs = [by_id[i] for i in record.input_ids]
    plan = MergePlan(inputs, record.output_tier)
    traffic = TrafficCounter()
    loaded = None
    if loader is not None and record.output_id is not None:
        loaded = loader.load(record.output_id)
    if loaded is not None:
        # Reconstruct merge_segments' accounting without re-merging.
        for segment in inputs:
            traffic.record(AccessClass.LD_LIST,
                           AccessPattern.SEQUENTIAL, segment.nbytes)
        segmented.claim_recovered_id(loaded.segment_id)
        traffic.record(AccessClass.ST_INDEX,
                       AccessPattern.SEQUENTIAL, loaded.nbytes)
        merged: Optional[Segment] = loaded
        report.segments_loaded += 1
    else:
        merged = merge_segments(segmented, inputs, record.output_tier,
                                traffic=traffic)
        output_id = None if merged is None else merged.segment_id
        if output_id != record.output_id:
            raise InvertedIndexError(
                f"merge replay produced output {output_id}, WAL "
                f"recorded {record.output_id}"
            )
        if merged is not None:
            report.segments_rebuilt += 1
            if durable:
                writer._write_segment_file(merged)
    writer.scheduler._install_merge(plan, merged, traffic)
    if durable:
        writer._write_manifest(wal_records=position)
        writer._remove_segment_files(record.input_ids)


def replay_log(records: Sequence[WalRecord], *,
               params=None, schemes: Optional[Sequence[str]] = None,
               buffer_docs: int = 256,
               buffer_bytes: Optional[int] = None,
               policy: Optional[MergePolicy] = None,
               device=None, clock=None, validate: bool = True,
               observer: Observer = NULL_OBSERVER) -> LiveIndexWriter:
    """Clean, in-memory replay of a WAL record stream.

    The reference the crash oracle holds recovery to: same ops, same
    seal/merge boundaries, everything rebuilt from scratch — no durable
    files involved. Returns the replayed plain writer.
    """
    writer = LiveIndexWriter(
        params=params, schemes=schemes, buffer_docs=buffer_docs,
        buffer_bytes=buffer_bytes, policy=policy, device=device,
        clock=clock, validate=validate, observer=observer,
    )
    _replay_records(writer, records, loader=None, crash=None,
                    report=RecoveryReport(), durable=False)
    return writer


def recover(wal_dir: Union[str, Path], *,
            device=None, clock=None,
            policy: Optional[MergePolicy] = None,
            params=None, schemes: Optional[Sequence[str]] = None,
            buffer_docs: int = 256, buffer_bytes: Optional[int] = None,
            validate: bool = True,
            observer: Observer = NULL_OBSERVER,
            crash_schedule: Optional[CrashSchedule] = None,
            fsync: bool = False
            ) -> Tuple[DurableLiveIndexWriter, RecoveryReport]:
    """Recover a crashed (or cleanly closed) WAL directory.

    Returns ``(writer, report)`` where ``writer`` is ready to continue
    ingest exactly where the surviving log ends. When the durable
    manifest is readable, its recorded configuration (codec schemes,
    buffer bounds, merge fanout, BM25 parameters) overrides the keyword
    defaults — replay determinism requires the original bounds; the
    keywords serve as fallback when the manifest was destroyed.
    ``crash_schedule`` may arm ``mid_recovery`` (or any other point hit
    by recovery's own maintenance) to model a double crash.
    """
    wal_dir = Path(wal_dir)
    wal_path = wal_dir / WAL_NAME
    if not wal_path.exists():
        raise InvertedIndexError(f"no WAL at {wal_path}")
    crash = CrashSchedule() if crash_schedule is None else crash_schedule
    report = RecoveryReport()
    recovery_traffic = report.traffic

    manifest: Optional[dict] = None
    try:
        manifest = load_manifest(wal_dir / MANIFEST_NAME)
    except InvertedIndexError:
        report.manifest_damaged = True
    if manifest is not None:
        recovery_traffic.record(
            AccessClass.LD_LIST, AccessPattern.SEQUENTIAL,
            (wal_dir / MANIFEST_NAME).stat().st_size,
        )
        config = manifest.get("config", {})
        schemes = config.get("schemes", schemes)
        buffer_docs = config.get("buffer_docs", buffer_docs)
        buffer_bytes = config.get("buffer_bytes", buffer_bytes)
        if policy is None and "fanout" in config:
            policy = MergePolicy(fanout=config["fanout"])
        if params is None and "k1" in config:
            params = BM25Parameters(k1=config["k1"], b=config["b"])

    scan = read_wal(wal_path)
    recovery_traffic.record(AccessClass.LD_LIST,
                            AccessPattern.SEQUENTIAL, scan.total_bytes)
    report.torn = scan.torn
    report.torn_bytes = scan.torn_bytes
    report.wal_bytes_scanned = scan.total_bytes
    if (manifest is not None
            and manifest.get("wal_records", 0) > len(scan.records)):
        raise InvertedIndexError(
            f"manifest claims {manifest['wal_records']} WAL records, "
            f"only {len(scan.records)} survive — the log was damaged "
            f"beyond its torn tail"
        )

    # Durable repair: drop the torn tail so the next append starts at
    # a frame boundary (idempotent — a double crash re-truncates a
    # no-op).
    if scan.torn is not None:
        with open(wal_path, "r+b") as handle:
            handle.truncate(scan.valid_bytes)
        if scan.valid_bytes < len(WAL_MAGIC):
            with open(wal_path, "wb") as handle:
                handle.write(WAL_MAGIC)
    crash.check("mid_recovery")

    writer = DurableLiveIndexWriter(
        wal_dir, device=device, clock=clock, policy=policy,
        params=params, schemes=schemes, buffer_docs=buffer_docs,
        buffer_bytes=buffer_bytes, validate=validate, observer=observer,
        crash_schedule=crash, fsync=fsync,
        _existing_wal=(len(scan.records),
                       max(0, scan.valid_bytes - len(WAL_MAGIC))),
    )
    loader = _SegmentLoader(wal_dir, recovery_traffic, report)
    _replay_records(writer, scan.records, loader=loader, crash=crash,
                    report=report, durable=True)

    # Finish what the crash interrupted: a full buffer whose seal never
    # committed, then any compactions the policy still finds. Both run
    # through the normal durable path (new WAL records, new files), so
    # the log converges to the same state a never-crashed run reaches.
    seals_before = len(writer.scheduler.seals)
    merges_before = len(writer.scheduler.records)
    if writer.index.memseg.full:
        writer.seal()
    else:
        writer.scheduler.run_pending()
    report.completion_seals = len(writer.scheduler.seals) - seals_before
    report.completion_merges = (len(writer.scheduler.records)
                                - merges_before)

    # Checkpoint the manifest (recovery-side cost, not the writer's)
    # and sweep files no committed state references.
    recovery_traffic.record(AccessClass.ST_INDEX,
                            AccessPattern.SEQUENTIAL,
                            writer._write_manifest(charge=False))
    keep = {segment_file_name(s.segment_id)
            for s in writer.index.segments}
    for stray in sorted(wal_dir.glob("seg-*.seg")):
        if stray.name not in keep:
            stray.unlink()
            report.orphans_removed += 1
    for stray in sorted(wal_dir.glob("*.tmp")):
        stray.unlink()

    report.modeled_seconds = writer.scheduler.device.service_time(
        recovery_traffic
    )
    if validate:
        from repro.index.validate import validate_segmented

        check = validate_segmented(
            writer.index, check_scores=False,
            manifest=load_manifest(writer.manifest_path),
            segment_dir=wal_dir,
        )
        if not check.ok:
            raise InvertedIndexError(
                "post-recovery validation failed: "
                + "; ".join(check.errors[:3])
            )
    observer.emit(report)
    writer._publish_state()
    return writer, report


def recover_live_index(wal_dir: Union[str, Path], **kwargs
                       ) -> Tuple[DurableLiveIndexWriter,
                                  Optional[RecoveryReport]]:
    """Open a WAL directory: recover it if it holds a log, create it
    otherwise. Returns ``(writer, report_or_None)``."""
    wal_dir = Path(wal_dir)
    if (wal_dir / WAL_NAME).exists():
        return recover(wal_dir, **kwargs)
    return DurableLiveIndexWriter(wal_dir, **kwargs), None
