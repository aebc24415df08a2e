"""Observer coverage for every instrumented component.

Each component that accepts an observer — the engine (block fetches and
skips, published per query), decompression modules, the DRAM block
cache, the cluster root, and the SCM pool/interconnect models — must
publish into the shared registry, and must publish *nothing* (and cost
nothing) under the null observer.
"""

import inspect
import re
from pathlib import Path

import pytest

from repro.cache import CacheSimulator, LRUBlockCache
from repro.cluster import SearchCluster, shard_documents
from repro.core import BossAccelerator, BossConfig
from repro.decompressor import DecompressionModule, program_for_scheme
from repro.compression import get_codec
from repro.observability import (
    MetricsRegistry,
    NULL_OBSERVER,
    Observer,
    RecordingObserver,
)
from repro.scm.pool import MemoryPool
from tests.conftest import build_random_index


@pytest.fixture()
def observer():
    return RecordingObserver()


class TestEngineHooks:
    def test_block_fetches_are_counted(self, observer):
        index = build_random_index(num_docs=600, vocab_size=20, seed=3)
        engine = BossAccelerator(index, BossConfig(k=10),
                                 observer=observer)
        result = engine.search('"t0" OR "t1"')
        fetched = observer.registry.get("fetch.blocks")
        assert fetched is not None
        assert fetched.total() == result.work.blocks_fetched
        assert observer.registry.get("scm.bytes").value(
            cls="LD List", pattern="sequential", tier="scm") > 0

    def test_skips_are_counted_by_mechanism(self, observer):
        index = build_random_index(num_docs=1500, vocab_size=40, seed=42)
        engine = BossAccelerator(index, BossConfig(k=5),
                                 observer=observer)
        total_et = 0
        total_overlap = 0
        for expression in ('"t0" AND "t25" AND "t38"', '"t0" OR "t1"'):
            result = engine.search(expression)
            total_et += result.work.blocks_skipped_et
            total_overlap += result.work.blocks_skipped_overlap
        skipped = observer.registry.get("fetch.blocks_skipped")
        assert total_et + total_overlap > 0, "queries produced no skips"
        assert skipped.value(mechanism="et") == total_et
        assert skipped.value(mechanism="overlap") == total_overlap

    def test_queries_started_matches_completed(self, observer):
        index = build_random_index(num_docs=400, vocab_size=15, seed=7)
        engine = BossAccelerator(index, BossConfig(k=10),
                                 observer=observer)
        for expression in ('"t0"', '"t1"', '"t0" AND "t1"'):
            engine.search(expression)
        registry = observer.registry
        assert registry.get("queries.started").total() == 3
        assert registry.get("queries.completed").total() == 3


class TestDecompressorHooks:
    def test_decode_publishes_per_scheme(self, observer):
        codec = get_codec("VB")
        module = DecompressionModule(program_for_scheme("VB"),
                                     observer=observer)
        values = list(range(0, 300, 3))
        module.decode(codec.encode(values), len(values))
        registry = observer.registry
        assert registry.get("decompressor.calls").value(scheme="VB") == 1
        assert registry.get(
            "decompressor.values").value(scheme="VB") == len(values)

    def test_null_observer_publishes_nothing(self):
        codec = get_codec("VB")
        module = DecompressionModule(program_for_scheme("VB"),
                                     observer=NULL_OBSERVER)
        values = [1, 5, 9]
        decoded = module.decode(codec.encode(values), len(values))
        assert decoded  # decode still works; nothing recorded anywhere


class TestCacheHooks:
    def test_hits_and_misses_split_by_tier(self, observer):
        cache = LRUBlockCache(capacity_bytes=4096, observer=observer)
        assert cache.access("t0", 0, 1000) is False   # cold miss
        assert cache.access("t0", 0, 1000) is True    # hit
        assert cache.access("t1", 0, 1000) is False
        registry = observer.registry
        accesses = registry.get("cache.accesses")
        assert accesses.value(outcome="hit") == 1
        assert accesses.value(outcome="miss") == 2
        served = registry.get("cache.bytes")
        assert served.value(tier="dram") == 1000
        assert served.value(tier="scm") == 2000

    def test_cache_simulator_passes_observer_through(self, observer):
        simulator = CacheSimulator(capacity_bytes=4096, observer=observer)
        simulator._cache.access("t0", 0, 512)
        assert observer.registry.get("cache.accesses").total() == 1


class TestClusterHooks:
    def test_root_publishes_merge_metrics(self, observer):
        index_docs = [
            [f"t{i % 6}" for i in range(3 + (n % 5))]
            for n in range(200)
        ]
        sharded = shard_documents(index_docs, num_shards=3)
        cluster = SearchCluster(
            [BossAccelerator(index, BossConfig(k=10))
             for index in sharded.indexes],
            observer=observer,
        )
        merged = cluster.search('"t0" OR "t1"', k=10)
        registry = observer.registry
        assert registry.get("cluster.queries").total() == 1
        assert registry.get(
            "cluster.shards_touched").total() == merged.shards_touched
        assert registry.get(
            "cluster.merge_ops").total() == merged.merge_ops
        assert registry.get(
            "cluster.interconnect_bytes"
        ).total() == merged.interconnect_bytes


class TestPoolMetrics:
    def test_pool_publishes_gauges(self):
        registry = MetricsRegistry()
        pool = MemoryPool()
        pool.publish_metrics(registry)
        assert registry.get("pool.nodes").value() == len(pool.nodes)
        assert registry.get(
            "pool.capacity_bytes").value() == pool.capacity
        assert "interconnect.bandwidth" in registry
        assert "interconnect.latency_seconds" in registry


class TestObserverContract:
    def test_base_observer_hooks_are_no_ops(self):
        """The interface is two methods and a flag; the null object
        accepts anything and publishes nothing."""
        public = {name for name in vars(Observer) if not name.startswith("_")}
        assert public == {"enabled", "emit", "on_query_complete"}
        observer = Observer()
        assert observer.enabled is False
        assert observer.emit(object()) is None
        assert observer.on_query_complete(None) is None
        assert NULL_OBSERVER.emit(object()) is None
        assert not hasattr(NULL_OBSERVER, "registry")

    def test_components_drop_disabled_observers(self):
        """One guard convention: a component holds the observer it was
        given — nothing rewrites a disabled one to ``None``."""
        index = build_random_index(num_docs=200, vocab_size=10, seed=5)
        engine = BossAccelerator(index, BossConfig(k=5),
                                 observer=NULL_OBSERVER)
        assert engine.observer is NULL_OBSERVER
        cache = LRUBlockCache(capacity_bytes=1024, observer=NULL_OBSERVER)
        assert cache._observer is NULL_OBSERVER
        assert LRUBlockCache(capacity_bytes=1024)._observer is NULL_OBSERVER

    def test_only_query_complete_is_a_named_hook(self):
        """No ``.on_*(`` call other than ``on_query_complete`` survives
        under ``src/repro`` — everything else goes through ``emit``."""
        import repro

        hook_call = re.compile(r"\.on_[a-z_]*\(")
        offenders = [
            f"{path}:{number}"
            for path in Path(repro.__file__).parent.rglob("*.py")
            for number, line in enumerate(
                path.read_text().splitlines(), 1)
            if hook_call.search(line) and "on_query_complete" not in line
        ]
        assert offenders == []

    def test_the_query_path_takes_no_observer(self):
        """Cursors and the decoded-block cache cannot call an observer
        per block: they are never handed one."""
        from repro.cache import DecodedBlockCache
        from repro.core.cursor import ListCursor

        for cls in (ListCursor, DecodedBlockCache):
            assert "observer" not in inspect.signature(cls).parameters

    def test_shared_registry_can_be_injected(self):
        registry = MetricsRegistry()
        a = RecordingObserver(registry=registry)
        b = RecordingObserver(registry=registry)
        a.registry.counter("x", "shared").inc()
        b.registry.counter("x").inc()
        assert registry.get("x").total() == 2
