"""Tests for the DRAM block-cache tier simulator."""

import pytest

from repro.cache import (
    CacheSimulator,
    DecodedBlockCache,
    LRUBlockCache,
    cached_memory_seconds,
    uncached_memory_seconds,
)
from repro.core import BossAccelerator, BossConfig
from repro.core.engine import recording_fetches
from repro.errors import ConfigurationError
from repro.scm.device import OPTANE_NODE_4CH
from repro.scm.traffic import AccessPattern

from tests import cache_core_golden

SEQ = AccessPattern.SEQUENTIAL
RAND = AccessPattern.RANDOM


@pytest.mark.parametrize("kind", sorted(cache_core_golden.STREAM_KINDS))
def test_caches_decide_as_before_the_shared_core(kind):
    """Each cache replays, stream by stream, every outcome and its final
    resident order from before the three shared one LRU core."""
    streams = cache_core_golden.STREAM_KINDS[kind]
    golden = cache_core_golden.load()[kind]
    assert len(golden) == cache_core_golden.STREAMS
    for seed, pinned in enumerate(golden):
        assert streams(seed) == pinned, f"{kind} stream {seed}"


class TestLRUBlockCache:
    def test_miss_then_hit(self):
        cache = LRUBlockCache(1024)
        assert not cache.access("a", 0, 100)
        assert cache.access("a", 0, 100)
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_capacity_eviction_is_lru(self):
        cache = LRUBlockCache(200)
        cache.access("a", 0, 100)
        cache.access("b", 0, 100)
        cache.access("a", 0, 100)  # touch a -> b is LRU
        cache.access("c", 0, 100)  # evicts b
        assert cache.access("a", 0, 100)
        assert not cache.access("b", 0, 100)

    def test_used_bytes_tracked(self):
        cache = LRUBlockCache(300)
        cache.access("a", 0, 120)
        cache.access("a", 1, 80)
        assert cache.used_bytes == 200
        assert cache.num_blocks == 2

    def test_oversized_block_never_cached(self):
        cache = LRUBlockCache(50)
        assert not cache.access("big", 0, 100)
        assert not cache.access("big", 0, 100)  # still a miss
        assert cache.used_bytes == 0

    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            LRUBlockCache(0)

    def test_negative_size_rejected(self):
        with pytest.raises(ConfigurationError):
            LRUBlockCache(10).access("a", 0, -1)

    # Regression: a hit whose size differs from the stored one must
    # update the byte accounting, or used_bytes drifts from reality and
    # the capacity LRU over/under-evicts forever after.
    def test_hit_updates_stored_size(self):
        cache = LRUBlockCache(1024)
        cache.access("a", 0, 60)
        assert cache.used_bytes == 60
        assert cache.access("a", 0, 90)  # hit, re-observed larger
        assert cache.used_bytes == 90
        assert cache.access("a", 0, 40)  # hit, re-observed smaller
        assert cache.used_bytes == 40
        assert cache.num_blocks == 1

    def test_growth_on_hit_evicts_to_capacity(self):
        cache = LRUBlockCache(200)
        cache.access("a", 0, 100)
        cache.access("b", 0, 100)
        assert cache.access("b", 0, 150)  # grows -> a (LRU) must go
        assert cache.used_bytes == 150
        assert cache.access("b", 0, 150)  # b survived its own growth
        assert not cache.access("a", 0, 100)  # evicted

    def test_hit_growing_past_capacity_uncaches_entry(self):
        cache = LRUBlockCache(100)
        cache.access("a", 0, 50)
        assert cache.access("a", 0, 120)  # hit, but now uncacheable
        assert cache.used_bytes == 0
        assert cache.num_blocks == 0
        assert not cache.access("a", 0, 120)  # gone, same as oversized


class TestDecodedBlockCache:
    def test_miss_then_hit_returns_same_object(self):
        cache = DecodedBlockCache(capacity_blocks=4)
        assert cache.get("a", 0, "VB") is None
        pair = ([1, 2], [1, 1])
        cache.put("a", 0, "VB", pair)
        assert cache.get("a", 0, "VB") is pair
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_key_includes_scheme(self):
        cache = DecodedBlockCache(capacity_blocks=4)
        cache.put("a", 0, "VB", "vb-decoded")
        assert cache.get("a", 0, "BP") is None
        assert cache.get("a", 0, "VB") == "vb-decoded"

    def test_lru_eviction_by_block_count(self):
        cache = DecodedBlockCache(capacity_blocks=2)
        cache.put("a", 0, "VB", "A")
        cache.put("b", 0, "VB", "B")
        assert cache.get("a", 0, "VB") == "A"  # touch a -> b is LRU
        cache.put("c", 0, "VB", "C")           # evicts b
        assert cache.get("b", 0, "VB") is None
        assert cache.get("a", 0, "VB") == "A"
        assert cache.get("c", 0, "VB") == "C"
        assert cache.num_blocks == 2

    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            DecodedBlockCache(capacity_blocks=0)

    def test_thread_safety_under_contention(self):
        from concurrent.futures import ThreadPoolExecutor

        cache = DecodedBlockCache(capacity_blocks=16)

        def worker(base):
            for i in range(200):
                key = (base + i) % 32
                if cache.get(f"t{key}", 0, "VB") is None:
                    cache.put(f"t{key}", 0, "VB", key)

        with ThreadPoolExecutor(max_workers=4) as pool:
            for future in [pool.submit(worker, n * 7) for n in range(4)]:
                future.result()
        assert cache.num_blocks <= 16
        assert cache.hits + cache.misses == 4 * 200

    def test_prefill_moves_no_counter_and_keeps_residents(self):
        cache = DecodedBlockCache(capacity_blocks=8)
        resident = ([1], [1])
        cache.put("a", 1, "VB", resident)
        cache.prefill("a", "VB", [(0, "A0"), (1, "new"), (2, "A2")])
        assert (cache.hits, cache.misses, cache.num_blocks) == (0, 0, 3)
        assert cache.get("a", 1, "VB") is resident  # not replaced
        assert cache.get("a", 2, "VB") == "A2"
        assert (cache.hits, cache.misses) == (2, 0)

    def test_prefill_evicts_to_capacity(self):
        cache = DecodedBlockCache(capacity_blocks=2)
        cache.put("b", 0, "VB", "B")
        cache.prefill("a", "VB", [(0, "A0"), (1, "A1")])
        assert cache.num_blocks == 2
        assert cache.get("b", 0, "VB") is None  # the LRU entry went
        assert cache.get("a", 1, "VB") == "A1"

    def test_engine_default_cache_fills_and_hits(self, small_index):
        """A list's first touch misses once and decodes the whole list,
        so its later blocks hit, and so does every block of a repeat."""
        engine = BossAccelerator(small_index, BossConfig(k=10))
        engine.search('"t0" OR "t2"')
        assert engine.decoded_cache.misses == 2
        assert engine.decoded_cache.hits > 0
        hits = engine.decoded_cache.hits
        engine.search('"t0" OR "t2"')
        assert engine.decoded_cache.misses == 2
        assert engine.decoded_cache.hits > hits


class TestCacheSimulator:
    def test_replay_accumulates(self):
        sim = CacheSimulator(1000)
        sim.replay([("a", 0, 100, SEQ), ("a", 0, 100, SEQ),
                    ("b", 0, 50, SEQ)])
        report = sim.report()
        assert report.hits == 1
        assert report.misses == 2
        assert report.dram_bytes == 100
        assert report.scm_bytes == 150
        assert report.bytes_absorbed_fraction == pytest.approx(100 / 250)

    def test_empty_report(self):
        report = CacheSimulator(100).report()
        assert report.hit_rate == 0.0
        assert report.bytes_absorbed_fraction == 0.0

    def test_cached_memory_seconds_below_uncached(self):
        sim = CacheSimulator(10_000)
        trace = [("a", i % 4, 256, SEQ) for i in range(100)]
        sim.replay(trace)
        report = sim.report()
        assert cached_memory_seconds(report) < uncached_memory_seconds(trace)

    def test_misses_charged_at_recorded_pattern(self):
        # Engine-random records (skip landings) never earn the
        # sequential rate, even when adjacent in the replay stream.
        sim = CacheSimulator(10_000)
        sim.replay([("a", 0, 100, RAND), ("a", 1, 100, RAND)])
        report = sim.report()
        assert report.scm_rand_bytes == 200
        assert report.scm_seq_bytes == 0

    def test_unbroken_runs_stay_sequential(self):
        sim = CacheSimulator(10_000)
        sim.replay([("a", 0, 100, RAND), ("a", 1, 100, SEQ),
                    ("a", 2, 100, SEQ)])
        report = sim.report()
        # The run start pays the seek; its continuation streams.
        assert report.scm_rand_bytes == 100
        assert report.scm_seq_bytes == 200

    def test_hit_in_the_middle_breaks_the_run(self):
        sim = CacheSimulator(10_000)
        sim.replay([("a", 0, 100, RAND), ("a", 1, 100, SEQ)])
        # Second pass: a1 hits in DRAM, so a2 restarts the SCM run.
        sim.replay([("a", 1, 100, SEQ), ("a", 2, 100, SEQ)])
        report = sim.report()
        assert report.hits == 1
        assert report.scm_rand_bytes == 200  # a0 and the restarted a2
        assert report.scm_seq_bytes == 100   # a1 on the first pass

    def test_other_term_interleaved_breaks_the_run(self):
        sim = CacheSimulator(10_000)
        sim.replay([("a", 0, 100, RAND), ("b", 0, 100, RAND),
                    ("a", 1, 100, SEQ)])
        report = sim.report()
        assert report.scm_seq_bytes == 0
        assert report.scm_rand_bytes == 300

    def test_scm_random_fraction(self):
        sim = CacheSimulator(10_000)
        sim.replay([("a", 0, 100, RAND), ("a", 1, 300, SEQ)])
        report = sim.report()
        assert report.scm_rand_bytes / report.scm_bytes == pytest.approx(0.25)


class TestUncachedBaseline:
    """Regression: the no-cache baseline must reflect Table I's
    sequential/random asymmetry instead of charging everything at the
    25.6 GB/s streaming rate."""

    def test_scattered_trace_pays_the_random_penalty(self):
        scattered = [("a", 0, 1000, RAND), ("a", 5, 1000, RAND),
                     ("a", 9, 1000, RAND)]
        mischarge = OPTANE_NODE_4CH.read_time(3000, SEQ)
        honest = uncached_memory_seconds(scattered)
        assert honest == pytest.approx(
            OPTANE_NODE_4CH.read_time(3000, RAND)
        )
        # Table I: 25.6 vs 6.6 GB/s — roughly a 4x penalty.
        assert honest / mischarge == pytest.approx(25.6 / 6.6)

    def test_streaming_trace_keeps_the_sequential_rate(self):
        # The baseline is the simulator's replay with nothing in front
        # of the SCM: the run's first block pays the seek, the rest of
        # the stream keeps the sequential rate.
        streamed = [("a", i, 1000, SEQ) for i in range(8)]
        assert uncached_memory_seconds(streamed) == pytest.approx(
            OPTANE_NODE_4CH.read_time(1000, RAND)
            + OPTANE_NODE_4CH.read_time(7000, SEQ)
        )

    def test_engine_skips_produce_random_records(self, small_index):
        engine = BossAccelerator(small_index, BossConfig(k=1))
        with recording_fetches() as fetches:
            engine.search('"t0" AND "t3"')
        log = fetches[engine]
        patterns = {record[3] for record in log}
        assert patterns <= {SEQ, RAND}
        # The honest baseline can only be >= the all-sequential one.
        total = sum(record[2] for record in log)
        assert uncached_memory_seconds(log) >= \
            OPTANE_NODE_4CH.read_time(total, SEQ)


class TestEngineIntegration:
    def test_fetch_log_records_engine_fetches(self, small_index):
        engine = BossAccelerator(small_index, BossConfig(k=10))
        with recording_fetches() as fetches:
            result = engine.search('"t0" OR "t2"')
        log = fetches[engine]
        assert len(log) == result.work.blocks_fetched
        assert all(size > 0 for _t, _b, size, _p in log)
        assert {t for t, _b, _s, _p in log} <= {"t0", "t2"}
        assert all(isinstance(p, AccessPattern) for _t, _b, _s, p in log)

    def test_repeated_queries_hit_the_cache(self, small_index):
        engine = BossAccelerator(small_index, BossConfig(k=10))
        sim = CacheSimulator(capacity_bytes=1 << 20)
        for _ in range(5):
            with recording_fetches() as fetches:
                engine.search('"t1" AND "t3"')
            sim.replay(fetches[engine])
        report = sim.report()
        # Runs 2..5 hit entirely: hit rate 4/5 of all accesses.
        assert report.hit_rate == pytest.approx(0.8)

    def test_zipf_log_exists(self, small_index):
        from repro.workloads.queries import QuerySampler

        sampler = QuerySampler([f"t{i}" for i in range(40)], seed=2)
        log = sampler.sample_zipf_log(num_queries=100, unique_queries=20)
        assert len(log) == 100
        expressions = [q.expression for q in log]
        # Skew: the most popular query repeats.
        top = max(set(expressions), key=expressions.count)
        assert expressions.count(top) >= 5
