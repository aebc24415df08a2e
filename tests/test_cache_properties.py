"""Property tests for LRUBlockCache byte accounting.

Fuzzes arbitrary access sequences (including size changes on hits and
oversized blocks) against a plain-dict reference model and checks the
invariants of the byte-capacity LRU contract:

* ``used_bytes`` always equals the sum of the resident entries' sizes,
* the cache never holds more than ``capacity_bytes``,
* hit/miss answers match the reference's residency exactly,
* eviction is LRU over the reference's recency order.

A drifting ``used`` would silently over- or under-evict forever after.
The last property pins the DRAM-tier replay (``repro.ioplanner.tier``)
against its no-cache baseline.
"""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import LRUBlockCache
from repro.ioplanner.tier import (
    DramTier,
    replay_fetches,
    replay_seconds,
    uncached_memory_seconds,
)
from repro.scm.traffic import AccessPattern


class ReferenceModel:
    """Dict-based executable spec of the byte-capacity LRU contract."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = OrderedDict()  # key -> size, oldest first

    def access(self, key, size):
        if key in self.entries:
            self.entries[key] = size
            self.entries.move_to_end(key)
            if size > self.capacity:
                del self.entries[key]
            self._shrink(0)
            return True
        if size <= self.capacity:
            self._shrink(size)
            self.entries[key] = size
        return False

    def _shrink(self, incoming):
        while self.used + incoming > self.capacity and self.entries:
            self.entries.popitem(last=False)

    @property
    def used(self):
        return sum(self.entries.values())


# Small key space so sequences revisit blocks (hits, size changes) and
# small capacities so eviction happens constantly.
ACCESSES = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c"]),     # term
        st.integers(min_value=0, max_value=3),  # block index
        st.integers(min_value=0, max_value=120),  # size (0 allowed)
    ),
    max_size=60,
)
CAPACITIES = st.integers(min_value=1, max_value=200)


@settings(max_examples=300, deadline=None)
@given(capacity=CAPACITIES, accesses=ACCESSES)
def test_matches_the_reference_model(capacity, accesses):
    cache = LRUBlockCache(capacity)
    model = ReferenceModel(capacity)
    for term, block, size in accesses:
        hit = cache.access(term, block, size)
        expected_hit = model.access((term, block), size)
        assert hit == expected_hit
        # Byte accounting: used is exactly the resident entries' sum.
        resident = cache._lru.entries
        assert cache.used_bytes == model.used
        assert cache.used_bytes == sum(w for w, _v in resident.values())
        # Capacity is a hard bound, even across hit-path size growth.
        assert cache.used_bytes <= capacity
        # Residency and recency order match the spec.
        assert list(resident) == list(model.entries)


@settings(max_examples=200, deadline=None)
@given(capacity=CAPACITIES, accesses=ACCESSES)
def test_counters_partition_the_accesses(capacity, accesses):
    cache = LRUBlockCache(capacity)
    hits = sum(cache.access(*a) for a in accesses)
    assert cache.hits == hits
    assert cache.hits + cache.misses == len(accesses)
    assert 0.0 <= cache.hit_rate <= 1.0


@settings(max_examples=200, deadline=None)
@given(accesses=ACCESSES)
def test_unbounded_cache_never_evicts(accesses):
    cache = LRUBlockCache(1 << 40)
    keys = set()
    for term, block, size in accesses:
        cache.access(term, block, size)
        keys.add((term, block))
    assert cache.num_blocks == len(keys)


# Every block is larger than the cache, so nothing is ever resident.
UNCACHEABLE_TRACES = st.lists(st.lists(st.tuples(
    st.sampled_from(["a", "b", "c"]), st.integers(0, 5),
    st.integers(2, 4096), st.sampled_from(list(AccessPattern)),
), max_size=20), max_size=6)


@settings(max_examples=300, deadline=None)
@given(traces=UNCACHEABLE_TRACES)
def test_zero_hits_cost_exactly_the_uncached_baseline(traces):
    """The baseline and the replay share one run rule: a tier that
    absorbs nothing changes nothing, to the bit."""
    records = [record for trace in traces for record in trace]
    tier = DramTier(1)
    routed = replay_fetches(records, tier)
    assert tier.hits == 0
    assert replay_seconds(routed) == uncached_memory_seconds(records)
