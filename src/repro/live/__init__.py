"""Live index mutation: LSM-style segments over the immutable pipeline.

Layering::

    LiveIndexWriter          ingest driver + SCM write accounting
      ├── SegmentedIndex     engine-facing read API over segments
      │     ├── MemSegment   DRAM write buffer (the memtable)
      │     ├── Segment ...  sealed immutable indexes (global docIDs)
      │     └── LiveStatistics   corpus-wide BM25 stats, versioned
      └── MergeScheduler     tiered compaction on a modeled device

    LiveServingTarget        adapter for repro.serving.QueryServer

Durability (``repro.live.durable``) wraps the same stack in a WAL +
manifest + segment-file commit protocol::

    DurableLiveIndexWriter   logs every mutation before applying it
      ├── WriteAheadLog      framed, checksummed op log (wal.py)
      ├── MANIFEST.json      committed segment set, atomic rename
      └── seg-XXXXXXXX.seg   one durable file per segment (segfile.py)
    recover()                WAL replay -> bit-identical writer
"""

from repro.live.durable import (
    DurableLiveIndexWriter,
    DurableMergeScheduler,
    RecoveryReport,
    WAL_NAME,
    recover,
    recover_live_index,
    replay_log,
)
from repro.live.manifest import (
    MANIFEST_NAME,
    load_manifest,
    manifest_payload,
    serialize_manifest,
    write_manifest,
)
from repro.live.memseg import MemSegment
from repro.live.merge import (
    MergePlan,
    MergePolicy,
    MergeRecord,
    MergeScheduler,
    merge_segments,
)
from repro.live.segments import (
    Segment,
    SegmentedIndex,
    build_segment,
)
from repro.live.segfile import (
    load_segment,
    save_segment,
    segment_file_name,
)
from repro.live.stats import LiveBM25Scorer, LiveStatistics
from repro.live.wal import (
    AddRecord,
    DeleteRecord,
    MergeCommitRecord,
    SealRecord,
    WalScan,
    WriteAheadLog,
    read_wal,
)
from repro.live.writer import (
    LiveIndexWriter,
    LiveServingTarget,
    UpdateResult,
)

__all__ = [
    "AddRecord",
    "DeleteRecord",
    "DurableLiveIndexWriter",
    "DurableMergeScheduler",
    "LiveBM25Scorer",
    "LiveIndexWriter",
    "LiveServingTarget",
    "LiveStatistics",
    "MANIFEST_NAME",
    "MemSegment",
    "MergeCommitRecord",
    "MergePlan",
    "MergePolicy",
    "MergeRecord",
    "MergeScheduler",
    "RecoveryReport",
    "SealRecord",
    "Segment",
    "SegmentedIndex",
    "UpdateResult",
    "WAL_NAME",
    "WalScan",
    "WriteAheadLog",
    "build_segment",
    "load_manifest",
    "load_segment",
    "manifest_payload",
    "merge_segments",
    "read_wal",
    "recover",
    "recover_live_index",
    "replay_log",
    "save_segment",
    "segment_file_name",
    "serialize_manifest",
    "write_manifest",
]
