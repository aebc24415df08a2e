"""Unit tests for window planning (repro.ioplanner.plan)."""

import pytest

from repro.ioplanner.plan import BlockDemand, plan_window
from repro.ioplanner.tier import DramTier
from repro.scm.device import OPTANE_NODE_4CH
from repro.scm.traffic import AccessPattern

SEQ = AccessPattern.SEQUENTIAL
RAND = AccessPattern.RANDOM


def demand(request_id, term, block, size=100, pattern=SEQ,
           tenant="default", node=0):
    return BlockDemand(request_id=request_id, tenant=tenant, node=node,
                       term=term, block_index=block, size=size,
                       pattern=pattern)


class TestDedupAndTier:
    def test_duplicate_blocks_fetch_once(self):
        plan = plan_window([
            demand(1, "a", 0), demand(2, "a", 0), demand(3, "a", 0),
        ])
        assert plan.dedup_bytes == 200
        assert plan.scm_bytes == 100
        assert plan.demand_bytes == 300

    def test_first_toucher_pays_the_scm_charge(self):
        plan = plan_window([demand(1, "a", 0), demand(2, "a", 0)])
        # Query 1 fetched from SCM; query 2 read the staged copy.
        assert plan.per_request_seconds[1] > plan.per_request_seconds[2]

    def test_tier_hit_absorbs_the_fetch(self):
        tier = DramTier(1 << 20)
        tier.admit((0, "a"), 0, 100)
        plan = plan_window([demand(1, "a", 0)], tier=tier)
        assert plan.dram_hit_bytes == 100
        assert plan.scm_bytes == 0
        assert plan.fetched == []

    def test_misses_enter_the_fetch_list(self):
        plan = plan_window([demand(1, "a", 0), demand(1, "b", 3)])
        assert sorted(plan.fetched) == [((0, "a"), 0, 100),
                                        ((0, "b"), 3, 100)]

    def test_one_term_on_two_nodes_is_two_blocks(self):
        # Block 0 of "a" on shard 0 and on shard 1 are different bytes
        # on different memory nodes: both are fetched, neither dedups,
        # and a tier hit on one node is no hit on the other.
        tier = DramTier(1 << 20)
        tier.admit((1, "a"), 0, 100)
        plan = plan_window([
            demand(1, "a", 0, node=0), demand(2, "a", 0, node=1),
            demand(3, "a", 0, node=2),
        ], tier=tier)
        assert plan.dedup_bytes == 0
        assert plan.dram_hit_bytes == 100
        assert sorted(plan.fetched) == [((0, "a"), 0, 100),
                                        ((2, "a"), 0, 100)]


class TestCoalescing:
    def test_adjacent_blocks_form_one_run(self):
        plan = plan_window([
            demand(1, "a", 0), demand(2, "a", 1), demand(3, "a", 2),
        ])
        assert len(plan.runs) == 1
        assert plan.runs[0].blocks == (0, 1, 2)
        # The run start is the seek; the rest stream.
        assert plan.scm_rand_bytes == 100
        assert plan.scm_seq_bytes == 200

    def test_cross_query_coalescing(self):
        # Neither query alone is sequential; together they are.
        plan = plan_window([
            demand(1, "a", 0, pattern=RAND),
            demand(2, "a", 2, pattern=RAND),
            demand(3, "a", 1, pattern=RAND),
        ])
        assert len(plan.runs) == 1
        assert plan.sequential_share == pytest.approx(2 / 3)

    def test_distant_blocks_stay_separate_runs(self):
        plan = plan_window([demand(1, "a", 0), demand(2, "a", 50)])
        assert len(plan.runs) == 2
        assert plan.scm_rand_bytes == 200
        assert plan.scm_seq_bytes == 0

    def test_different_terms_never_coalesce(self):
        plan = plan_window([demand(1, "a", 0), demand(2, "b", 1)])
        assert len(plan.runs) == 2

    def test_one_term_on_two_nodes_never_coalesces(self):
        plan = plan_window([demand(1, "a", 0, node=0),
                            demand(2, "a", 1, node=1)])
        assert [run.list_key for run in plan.runs] == [(0, "a"), (1, "a")]

    def test_gap_fill_bridges_a_small_gap(self):
        # Blocks 0 and 2 of one term: reading the 1-block gap (~100 B)
        # sequentially is far cheaper than a second random seek.
        plan = plan_window([demand(1, "a", 0), demand(2, "a", 2)])
        assert len(plan.runs) == 1
        assert plan.runs[0].blocks == (0, 2)
        assert plan.gap_bytes == 100
        assert plan.scm_seq_bytes == 100  # block 2 became a run member

    def test_gap_fill_respects_the_block_cap(self):
        # A 4-block gap is past MAX_GAP_BLOCKS (2).
        plan = plan_window([demand(1, "a", 0), demand(2, "a", 5)])
        assert len(plan.runs) == 2
        assert plan.gap_bytes == 0

    def test_gap_fill_declines_an_uneconomic_bridge(self):
        # The gap blocks are huge (mean size ~1 MB) while the rescued
        # block is tiny: streaming the bridge costs more than its seek.
        plan = plan_window([
            demand(1, "a", 0, size=1 << 20),
            demand(2, "a", 2, size=64),
        ])
        assert len(plan.runs) == 2
        assert plan.gap_bytes == 0


class TestAttribution:
    def test_conservation_identity(self):
        tier = DramTier(1 << 20)
        tier.admit((0, "b"), 0, 70)
        demands = [
            demand(1, "a", 0, size=100), demand(1, "a", 1, size=110),
            demand(2, "a", 0, size=100), demand(2, "b", 0, size=70),
            demand(3, "c", 9, size=50, pattern=RAND),
        ]
        plan = plan_window(demands, tier=tier)
        plan.check_conservation()  # raises on violation
        assert (plan.dram_hit_bytes + plan.dedup_bytes
                + plan.scm_seq_bytes + plan.scm_rand_bytes) == 430
        assert sum(plan.per_request_bytes.values()) == 430

    def test_run_members_pay_the_sequential_rate(self):
        plan = plan_window([demand(1, "a", 0), demand(2, "a", 1)])
        seek = OPTANE_NODE_4CH.read_time(100, RAND)
        stream = OPTANE_NODE_4CH.read_time(100, SEQ)
        assert plan.per_request_seconds[1] == pytest.approx(seek)
        assert plan.per_request_seconds[2] == pytest.approx(stream)

    def test_gap_seconds_ride_on_the_run(self):
        plan = plan_window([demand(1, "a", 0), demand(2, "a", 2)])
        gap_seconds = OPTANE_NODE_4CH.read_time(100, SEQ)
        base = (OPTANE_NODE_4CH.read_time(100, RAND)
                + OPTANE_NODE_4CH.read_time(100, SEQ))
        total = sum(plan.per_request_seconds.values())
        assert total == pytest.approx(base + gap_seconds)

    def test_tenant_bytes_follow_demands(self):
        plan = plan_window([
            demand(1, "a", 0, tenant="x"),
            demand(2, "a", 0, tenant="y"),
        ])
        assert plan.tenant_bytes == {"x": 100, "y": 100}


class TestPlannerOffBaseline:
    def test_engine_patterns_charge_verbatim(self):
        plan = plan_window([
            demand(1, "a", 0, pattern=SEQ),
            demand(2, "a", 0, pattern=RAND),  # would dedup when on
        ], enabled=False)
        assert plan.dedup_bytes == 0
        assert plan.dram_hit_bytes == 0
        assert plan.scm_seq_bytes == 100
        assert plan.scm_rand_bytes == 100
        assert plan.runs == []

    def test_off_mode_never_touches_the_tier(self):
        tier = DramTier(1 << 20)
        tier.admit((0, "a"), 0, 100)
        plan = plan_window([demand(1, "a", 0)], tier=tier,
                           enabled=False)
        assert plan.dram_hit_bytes == 0
        assert tier.hits == 0

    def test_off_mode_conserves_bytes_too(self):
        plan = plan_window([
            demand(1, "a", 0, pattern=RAND), demand(2, "b", 1),
        ], enabled=False)
        plan.check_conservation()
        assert plan.scm_bytes == plan.demand_bytes == 200


class TestEmptyWindow:
    def test_empty_demands_plan_cleanly(self):
        plan = plan_window([])
        plan.check_conservation()
        assert plan.demand_bytes == 0
        assert plan.sequential_share == 0.0
