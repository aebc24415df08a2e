"""live.* metrics and the write-traffic conservation invariants.

The live layer's accounting has one load-bearing identity: every byte of
ST Index traffic corresponds to exactly one segment installed at that
size.  Seals write tier-0 bytes, merges write higher-tier bytes, and the
three views of that total — the traffic counter, the per-tier ledger,
and the published `live.*` metrics — must agree to the byte.
"""

import random

import pytest

from repro.errors import CrashError
from repro.faults import CrashSchedule
from repro.live import (
    DurableLiveIndexWriter,
    LiveIndexWriter,
    MergePolicy,
    recover,
)
from repro.observability import NULL_OBSERVER, RecordingObserver, observing
from repro.scm.traffic import AccessClass

VOCAB = [f"t{i}" for i in range(8)]


def churn(writer, count, seed=5, delete_every=0):
    rng = random.Random(f"m:{seed}")
    for i in range(count):
        length = rng.randint(3, 12)
        tokens = [VOCAB[i % len(VOCAB)]]
        tokens += [rng.choice(VOCAB) for _ in range(length - 1)]
        writer.add_document(tokens)
        if delete_every and (i + 1) % delete_every == 0:
            writer.delete_oldest()


@pytest.fixture()
def observed_writer():
    observer = RecordingObserver()
    writer = LiveIndexWriter(buffer_docs=4, policy=MergePolicy(fanout=3))
    with observing(observer):
        churn(writer, 30, delete_every=7)
        writer.flush()
    return writer, observer.registry


class TestLiveMetrics:
    def test_seal_counters_match_scheduler(self, observed_writer):
        writer, registry = observed_writer
        assert registry.counter("live.seals").total() == len(
            writer.scheduler.seals
        )
        assert registry.counter("live.seal_bytes").total() == (
            writer.sealed_bytes
        )
        sealed_docs = registry.counter("live.sealed_docs").total()
        assert sealed_docs == 30  # every added doc was eventually sealed

    def test_merge_counters_match_records(self, observed_writer):
        writer, registry = observed_writer
        records = writer.scheduler.records
        assert records  # the churn above is sized to force compaction
        merges = registry.counter("live.merges")
        assert merges.total() == len(records)
        for record in records:
            assert merges.value(tier=str(record.tier)) > 0
        assert registry.counter("live.merge_read_bytes").total() == sum(
            r.bytes_read for r in records
        )
        assert registry.counter("live.merge_write_bytes").total() == sum(
            r.bytes_written for r in records
        )
        # busy_seconds also covers seal windows; the counter is merge-only.
        assert registry.counter(
            "live.maintenance_seconds"
        ).total() == pytest.approx(sum(r.seconds for r in records))
        assert writer.scheduler.busy_seconds > sum(
            r.seconds for r in records
        )

    def test_state_gauges_track_the_index(self, observed_writer):
        writer, registry = observed_writer
        assert registry.gauge("live.segments").value() == (
            writer.index.num_segments
        )
        assert registry.gauge("live.buffer_docs").value() == 0  # flushed
        assert registry.gauge(
            "live.write_amplification"
        ).value() == pytest.approx(writer.write_amplification)

    def test_null_observer_publishes_nothing(self):
        writer = LiveIndexWriter(buffer_docs=4,
                                 policy=MergePolicy(fanout=3))
        with observing(NULL_OBSERVER):
            churn(writer, 30)
            writer.flush()
        assert writer.scheduler.records  # work happened, silently


class TestTrafficConservation:
    def test_st_index_bytes_equal_installed_segment_bytes(
        self, observed_writer
    ):
        """seal bytes + merge write bytes == all ST Index traffic ==
        the per-tier ledger == the published metrics."""
        writer, registry = observed_writer
        recorded = writer.traffic.bytes_for(AccessClass.ST_INDEX)
        by_tier = sum(writer.bytes_written_by_tier.values())
        from_records = writer.sealed_bytes + sum(
            r.bytes_written for r in writer.scheduler.records
        )
        published = (
            registry.counter("live.seal_bytes").total()
            + registry.counter("live.merge_write_bytes").total()
        )
        assert recorded == by_tier == from_records == published

    def test_merge_reads_equal_ld_list_traffic(self, observed_writer):
        writer, registry = observed_writer
        assert writer.traffic.bytes_for(AccessClass.LD_LIST) == (
            registry.counter("live.merge_read_bytes").total()
        )

    def test_write_amplification_is_the_tier_ratio(self, observed_writer):
        writer, _ = observed_writer
        tiers = writer.bytes_written_by_tier
        assert writer.write_amplification == pytest.approx(
            sum(tiers.values()) / tiers[0]
        )
        assert writer.write_amplification > 1.0


@pytest.fixture()
def durable_observed_writer(tmp_path):
    observer = RecordingObserver()
    with observing(observer):
        writer = DurableLiveIndexWriter(tmp_path / "wal", buffer_docs=4,
                                        policy=MergePolicy(fanout=3))
        churn(writer, 30, delete_every=7)
        writer.flush()
    return writer, observer.registry


class TestDurableMetrics:
    def test_wal_counters_match_the_log(self, durable_observed_writer):
        writer, registry = durable_observed_writer
        records = registry.counter("live.wal.records")
        assert records.total() == writer.wal.records_logged
        assert records.value(kind="add") == 30
        assert records.value(kind="delete") == 4  # 30 adds, every 7th
        assert records.value(kind="seal") == len(writer.scheduler.seals)
        assert records.value(kind="merge") == len(
            writer.scheduler.records
        )
        assert registry.counter("live.wal.bytes").total() == (
            writer.wal.bytes_logged
        )

    def test_manifest_counters_match_the_writer(
        self, durable_observed_writer
    ):
        writer, registry = durable_observed_writer
        assert registry.counter("live.manifest.writes").total() == (
            writer.manifest_writes
        )
        assert registry.counter("live.manifest.bytes").total() == (
            writer.manifest_bytes
        )
        # v0 + one per seal + one per merge commit.
        assert writer.manifest_writes == (
            1 + len(writer.scheduler.seals)
            + len(writer.scheduler.records)
        )

    def test_durable_st_index_conservation(self, durable_observed_writer):
        """ST Index == seals + merge rewrites + WAL frames + manifests,
        both in the traffic counter and in the published metrics."""
        writer, registry = durable_observed_writer
        recorded = writer.traffic.bytes_for(AccessClass.ST_INDEX)
        published = (
            registry.counter("live.seal_bytes").total()
            + registry.counter("live.merge_write_bytes").total()
            + registry.counter("live.wal.bytes").total()
            + registry.counter("live.manifest.bytes").total()
        )
        by_parts = (
            sum(writer.bytes_written_by_tier.values())
            + writer.wal.bytes_logged + writer.manifest_bytes
        )
        assert recorded == published == by_parts

    def test_recovery_metrics_published(self, tmp_path):
        crashed = DurableLiveIndexWriter(
            tmp_path / "wal", buffer_docs=4,
            policy=MergePolicy(fanout=3),
            crash_schedule=CrashSchedule("mid_wal_append", 25),
        )
        with pytest.raises(CrashError):
            churn(crashed, 40, delete_every=7)

        observer = RecordingObserver()
        with observing(observer):
            writer, report = recover(tmp_path / "wal")
        registry = observer.registry
        runs = registry.counter("live.recovery.runs")
        assert runs.total() == 1
        assert runs.value(torn="truncated") == 1
        assert registry.counter(
            "live.recovery.records_replayed"
        ).total() == report.records_replayed
        segments = registry.counter("live.recovery.segments")
        assert segments.value(disposition="loaded") == (
            report.segments_loaded
        )
        assert segments.value(disposition="rebuilt") == (
            report.segments_rebuilt
        )
        assert registry.counter("live.recovery.torn_bytes").total() == (
            report.torn_bytes
        )
        assert registry.gauge(
            "live.recovery.last_modeled_seconds"
        ).value() == pytest.approx(report.modeled_seconds)
        # Recovery runs in the same scope: replayed WAL frames and
        # manifests land in the live.* counters too.
        assert registry.counter("live.wal.bytes").total() == (
            writer.wal.bytes_logged
        )
        assert registry.counter("live.manifest.writes").total() == (
            writer.manifest_writes
        )
        writer.close()
