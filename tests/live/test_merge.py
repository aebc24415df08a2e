"""Merge policy, scheduler timeline, and compaction accounting."""

import pytest

from repro.clock import VirtualClock
from repro.errors import ConfigurationError, InvertedIndexError
from repro.live import MergePolicy, MergeScheduler, SegmentedIndex
from repro.live.merge import merge_segments
from repro.scm.device import DDR4_4CH, OPTANE_NODE_4CH
from repro.scm.traffic import AccessClass, TrafficCounter

from tests import write_side_golden


def sealed_index(num_segments, docs_per_segment=4, vocab=4):
    live = SegmentedIndex(buffer_docs=docs_per_segment)
    terms = [f"t{i}" for i in range(vocab)]
    for s in range(num_segments):
        for d in range(docs_per_segment):
            live.add_document([terms[(s + d) % vocab], terms[d % vocab]])
        live.seal()
    return live


class TestMergePolicy:
    def test_below_fanout_no_plan(self):
        live = sealed_index(3)
        assert MergePolicy(fanout=4).plan(live.segments) is None

    def test_at_fanout_plans_oldest(self):
        live = sealed_index(5)
        plan = MergePolicy(fanout=4).plan(live.segments)
        assert plan is not None
        assert [s.segment_id for s in plan.inputs] == [0, 1, 2, 3]
        assert plan.output_tier == 1

    def test_lowest_tier_merges_first(self):
        live = sealed_index(4)
        scheduler = MergeScheduler(live, validate=False)
        scheduler.run_pending()
        # one tier-1 segment; add 4 more tier-0s -> next plan is tier 0
        for s in range(4):
            for d in range(4):
                live.add_document([f"t{(s + d) % 4}"])
            live.seal()
        plan = MergePolicy(fanout=4).plan(live.segments)
        assert plan.output_tier == 1
        assert all(s.tier == 0 for s in plan.inputs)

    def test_bad_fanout_rejected(self):
        with pytest.raises(ConfigurationError):
            MergePolicy(fanout=1)


class TestMergeSegments:
    def test_merged_segment_file_is_byte_identical(self):
        """Seeded inputs with tombstones, read through the bulk
        decoders: the segment file the pre-width-pass commit wrote."""
        assert (write_side_golden.merged_segment_digest()
                == write_side_golden.load()["merged_segment"])

    def test_merge_preserves_live_postings(self):
        live = sealed_index(4)
        total_live = live.num_docs
        inputs = list(live.segments)
        merged = merge_segments(live, inputs, 1)
        assert merged.tier == 1
        assert merged.num_docs == total_live
        assert not merged.tombstones

    def test_merge_drops_tombstones(self):
        live = sealed_index(2)
        victim = live.oldest_live_doc()
        live.delete_document(victim)
        merged = merge_segments(live, list(live.segments), 1)
        assert victim not in merged.doc_lengths
        assert merged.num_docs == live.num_docs

    def test_merge_of_fully_dead_inputs_returns_none(self):
        live = SegmentedIndex()
        a = live.add_document(["x"])
        live.add_document(["keep"])  # keeps the corpus non-empty
        live.seal()
        live.delete_document(a)
        b = live.add_document(["x"])
        live.seal()
        live.delete_document(b)
        second = live.segments[1]
        assert second.live_docs == 0
        merged = merge_segments(live, [second], 1)
        assert merged is None
        live.replace_segments([second], None)
        assert len(live.segments) == 1

    def test_merge_traffic_reads_inputs_writes_output(self):
        live = sealed_index(4)
        traffic = TrafficCounter()
        inputs = list(live.segments)
        merged = merge_segments(live, inputs, 1, traffic=traffic)
        assert traffic.bytes_for(AccessClass.LD_LIST) == sum(
            s.nbytes for s in inputs
        )
        assert traffic.bytes_for(AccessClass.ST_INDEX) == merged.nbytes
        assert traffic.write_bytes == merged.nbytes


class TestMergeScheduler:
    def test_run_pending_reaches_quiescence(self):
        live = sealed_index(5)
        scheduler = MergeScheduler(live, policy=MergePolicy(fanout=4))
        records = scheduler.run_pending()
        assert len(records) == 1
        assert live.num_segments == 2
        assert scheduler.run_pending() == []

    def test_busy_windows_queue_fifo(self):
        live = sealed_index(8)
        clock = VirtualClock()
        scheduler = MergeScheduler(live, clock=clock,
                                   policy=MergePolicy(fanout=4))
        records = scheduler.run_pending()
        assert len(records) == 2
        first, second = records
        assert first.started == 0.0
        assert second.started == first.finished  # back-to-back
        assert scheduler.busy_until == second.finished
        assert scheduler.busy_seconds == pytest.approx(
            first.seconds + second.seconds
        )

    def test_windows_start_no_earlier_than_now(self):
        live = sealed_index(4)
        clock = VirtualClock()
        clock.advance(5.0)
        scheduler = MergeScheduler(live, clock=clock)
        (record,) = scheduler.run_pending()
        assert record.started == 5.0

    def test_slower_device_longer_windows(self):
        def maintenance_seconds(device):
            live = sealed_index(4)
            scheduler = MergeScheduler(live, device=device)
            scheduler.run_pending()
            return scheduler.busy_seconds

        assert (maintenance_seconds(OPTANE_NODE_4CH)
                > maintenance_seconds(DDR4_4CH))

    def test_post_merge_validation_catches_corruption(self):
        live = sealed_index(4)
        scheduler = MergeScheduler(live, policy=MergePolicy(fanout=4))
        # Sabotage the bookkeeping: statistics claim a doc is live that
        # the merge will drop.
        victim = live.oldest_live_doc()
        owner = next(s for s in live.segments
                     if victim in s.doc_lengths)
        owner.tombstones.add(victim)  # bypasses stats.remove
        with pytest.raises(InvertedIndexError):
            scheduler.run_pending()

    def test_compact_all_single_segment(self):
        live = sealed_index(3)
        scheduler = MergeScheduler(live)
        record = scheduler.compact_all()
        assert record is not None
        assert live.num_segments == 1
        assert scheduler.compact_all() is None

    def test_bytes_written_by_tier(self):
        live = sealed_index(4)
        scheduler = MergeScheduler(live, policy=MergePolicy(fanout=4))
        scheduler.run_pending()
        tiers = scheduler.bytes_written_by_tier
        assert 1 in tiers
        assert tiers[1] == live.segments[0].nbytes
