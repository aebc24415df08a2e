"""Unit tests for the segmented DRAM tier (repro.ioplanner.tier)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.ioplanner.tier import SEGMENTS, DramTier


class TestSegmentedPromotion:
    def test_demand_admits_enter_cold(self):
        tier = DramTier(1000)
        tier.admit("a", 0, 100)
        assert tier.segment_of("a", 0) == "cold"

    def test_hits_climb_cold_warm_hot(self):
        tier = DramTier(1000)
        tier.admit("a", 0, 100)
        assert tier.lookup("a", 0, 100)
        assert tier.segment_of("a", 0) == "warm"
        assert tier.lookup("a", 0, 100)
        assert tier.segment_of("a", 0) == "hot"
        assert tier.lookup("a", 0, 100)  # already at the top
        assert tier.segment_of("a", 0) == "hot"

    def test_miss_is_counted_and_not_admitted(self):
        tier = DramTier(1000)
        assert not tier.lookup("a", 0, 100)
        assert tier.misses == 1
        assert not tier.contains("a", 0)  # admit is the planner's job

    def test_one_shot_scan_cannot_flush_the_hot_set(self):
        tier = DramTier(1000)
        tier.admit("hot", 0, 100)
        tier.lookup("hot", 0, 100)
        tier.lookup("hot", 0, 100)  # promoted to hot
        # A burst of one-shot blocks 5x the capacity churns cold only.
        for i in range(50):
            tier.admit("scan", i, 100)
        assert tier.segment_of("hot", 0) == "hot"
        assert tier.used_bytes <= 1000

    def test_overfull_hot_demotes_into_warm(self):
        tier = DramTier(1000)  # hot limit: HOT_FRACTION * 1000 = 500 B
        for i in range(6):
            tier.admit("a", i, 100)
            tier.lookup("a", i, 100)
            tier.lookup("a", i, 100)  # each climbs to hot (600 > 500)
        assert tier.segment_bytes("hot") <= 500
        assert tier.contains("a", 0)  # demoted, not evicted

    def test_eviction_prefers_cold(self):
        tier = DramTier(400)
        tier.admit("keep", 0, 100)
        tier.lookup("keep", 0, 100)   # warm (120-byte segment bound)
        tier.admit("c1", 0, 100)
        tier.admit("c2", 0, 100)
        tier.admit("c3", 0, 100)      # at capacity
        tier.admit("c4", 0, 100)      # over: a cold block must go
        assert tier.contains("keep", 0)
        assert not tier.contains("c1", 0)  # cold LRU was the victim
        assert tier.used_bytes <= 400

    def test_oversized_block_never_admitted(self):
        tier = DramTier(100)
        tier.admit("big", 0, 500)
        assert not tier.contains("big", 0)
        assert tier.used_bytes == 0

    def test_size_update_on_readmit(self):
        tier = DramTier(1000)
        tier.admit("a", 0, 100)
        tier.admit("a", 0, 250)
        assert tier.used_bytes == 250
        assert tier.num_blocks == 1

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            DramTier(0)
        with pytest.raises(ConfigurationError):
            DramTier(100).lookup("a", 0, -1)


class TestPopularityAndPrefetch:
    def test_hot_terms_ranked_by_decayed_bytes(self):
        tier = DramTier(1 << 20)
        for _ in range(3):
            tier.lookup("big", 0, 1000)
        tier.lookup("small", 0, 10)
        tier.end_window()
        assert tier.hot_terms(2) == ["big", "small"]

    def test_decay_forgets_stale_terms(self):
        tier = DramTier(1 << 20)
        tier.lookup("old", 0, 1000)
        tier.end_window()
        for _ in range(3):
            tier.lookup("new", 0, 1000)
            tier.end_window()
        assert tier.hot_terms(1) == ["new"]

    def test_candidates_extend_past_the_deepest_block(self):
        tier = DramTier(1 << 20)
        tier.lookup("a", 0, 100)
        tier.lookup("a", 1, 300)
        tier.end_window()
        candidates = tier.prefetch_candidates(1, depth=2)
        assert [(c.term, c.block_index) for c in candidates] == [
            ("a", 2), ("a", 3),
        ]
        # Sizes are the observed mean payload.
        assert all(c.size == 200 for c in candidates)

    def test_candidates_skip_blocks_already_staged(self):
        tier = DramTier(1 << 20)
        tier.lookup("a", 1, 100)
        tier.admit("a", 2, 100, segment="warm")
        tier.end_window()
        candidates = tier.prefetch_candidates(1, depth=2)
        assert [(c.term, c.block_index) for c in candidates] == [
            ("a", 3),
        ]

    def test_prefetch_admits_into_warm(self):
        tier = DramTier(1 << 20)
        tier.admit("a", 5, 100, segment="warm")
        assert tier.segment_of("a", 5) == "warm"


class TestByteCounters:
    """The O(1) per-segment counters against the segments themselves."""

    #: (is_lookup, term, block, size, admit segment) — few keys so hits,
    #: promotions and re-admits at a new size occur; sizes past the
    #: capacity exercise the uncacheable path.
    OPERATIONS = st.lists(
        st.tuples(st.booleans(), st.sampled_from("abc"),
                  st.integers(0, 5), st.integers(0, 400),
                  st.sampled_from(SEGMENTS)),
        max_size=120,
    )

    @settings(max_examples=150, deadline=None)
    @given(capacity=st.integers(1, 1000), operations=OPERATIONS)
    def test_counters_equal_segment_sums(self, capacity, operations):
        tier = DramTier(capacity)
        for is_lookup, term, block, size, segment in operations:
            if is_lookup:
                tier.lookup(term, block, size)
            else:
                tier.admit(term, block, size, segment=segment)
            resident = {
                name: sum(size for size, _value
                          in tier._segments[name].entries.values())
                for name in SEGMENTS}
            assert {name: tier.segment_bytes(name)
                    for name in SEGMENTS} == resident
            assert tier.used_bytes == sum(resident.values())
            assert tier.used_bytes <= capacity
