"""Observer coverage for every instrumented component.

Each component that reports to the observer scope — the engine (block
fetches and skips, published per query), decompression modules, the
cluster root, and the SCM pool/interconnect models — must publish into
the shared registry, and must publish *nothing* (and cost nothing)
under the null observer.
"""

import ast
import inspect
import re
from pathlib import Path

import pytest

from repro.api import BossSession
from repro.clock import VirtualClock
from repro.cluster import SearchCluster, shard_documents
from repro.cluster.resilience import ResiliencePolicy
from repro.core import BossAccelerator, BossConfig
from repro.decompressor import DecompressionModule, program_for_scheme
from repro.compression import get_codec
from repro.faults import ZERO_FAULTS, FaultConfig, make_faulty_cluster
from repro.ioplanner.tier import DramTier, replay_fetches
from repro.observability import (
    MetricsRegistry,
    NULL_OBSERVER,
    Observer,
    RecordingObserver,
    current_observer,
    observing,
)
from repro.scm.pool import MemoryPool
from repro.scm.traffic import AccessPattern
from repro.serving import QueryServer, ServingConfig, TraceArrivals, \
    build_requests
from repro.workloads import synthetic_documents
from tests.conftest import build_random_index


@pytest.fixture()
def observer():
    return RecordingObserver()


class TestEngineHooks:
    def test_block_fetches_are_counted(self, observer):
        index = build_random_index(num_docs=600, vocab_size=20, seed=3)
        engine = BossAccelerator(index, BossConfig(k=10))
        with observing(observer):
            result = engine.search('"t0" OR "t1"')
        fetched = observer.registry.get("fetch.blocks")
        assert fetched is not None
        assert fetched.total() == result.work.blocks_fetched
        assert observer.registry.get("scm.bytes").value(
            cls="LD List", pattern="sequential", tier="scm") > 0

    def test_skips_are_counted_by_mechanism(self, observer):
        index = build_random_index(num_docs=1500, vocab_size=40, seed=42)
        engine = BossAccelerator(index, BossConfig(k=5))
        total_et = 0
        total_overlap = 0
        for expression in ('"t0" AND "t25" AND "t38"', '"t0" OR "t1"'):
            with observing(observer):
                result = engine.search(expression)
            total_et += result.work.blocks_skipped_et
            total_overlap += result.work.blocks_skipped_overlap
        skipped = observer.registry.get("fetch.blocks_skipped")
        assert total_et + total_overlap > 0, "queries produced no skips"
        assert skipped.value(mechanism="et") == total_et
        assert skipped.value(mechanism="overlap") == total_overlap

    def test_queries_started_matches_completed(self, observer):
        index = build_random_index(num_docs=400, vocab_size=15, seed=7)
        engine = BossAccelerator(index, BossConfig(k=10))
        with observing(observer):
            for expression in ('"t0"', '"t1"', '"t0" AND "t1"'):
                engine.search(expression)
        registry = observer.registry
        assert registry.get("queries.started").total() == 3
        assert registry.get("queries.completed").total() == 3


class TestDecompressorHooks:
    def test_decode_publishes_per_scheme(self, observer):
        codec = get_codec("VB")
        module = DecompressionModule(program_for_scheme("VB"))
        values = list(range(0, 300, 3))
        with observing(observer):
            module.decode(codec.encode(values), len(values))
        registry = observer.registry
        assert registry.get("decompressor.calls").value(scheme="VB") == 1
        assert registry.get(
            "decompressor.values").value(scheme="VB") == len(values)

    def test_null_observer_publishes_nothing(self):
        codec = get_codec("VB")
        module = DecompressionModule(program_for_scheme("VB"))
        values = [1, 5, 9]
        with observing(NULL_OBSERVER):
            decoded = module.decode(codec.encode(values), len(values))
        assert decoded  # decode still works; nothing recorded anywhere


class TestCacheHooks:
    def test_hits_and_misses_split_by_tier(self):
        """The DRAM tier publishes no series of its own: a replay's
        routed bytes carry the DRAM/SCM split."""
        tier = DramTier(capacity_bytes=4096)
        routed = replay_fetches([("t0", 0, 1000, AccessPattern.RANDOM),
                                 ("t0", 0, 1000, AccessPattern.RANDOM),
                                 ("t1", 0, 1000, AccessPattern.RANDOM)],
                                tier)
        assert (tier.hits, tier.misses) == (1, 2)
        assert routed.dram_hit_bytes == 1000
        assert routed.scm_bytes == 2000


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
        )
        with observing(observer):
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
        assert registry.get("pool.nodes").value() == pool.nodes
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
        """One guard convention: a component asks
        ``current_observer()`` where the event happens. Outside every
        scope that is the null object, and an inner
        ``observing(NULL_OBSERVER)`` silences an outer recording scope
        until it closes."""
        index = build_random_index(num_docs=200, vocab_size=10, seed=5)
        engine = BossAccelerator(index, BossConfig(k=5))
        assert current_observer() is NULL_OBSERVER
        recording = RecordingObserver()
        with observing(recording) as scoped:
            assert scoped is current_observer() is recording
            with observing(NULL_OBSERVER):
                engine.search('"t0"')
            assert current_observer() is recording
            engine.search('"t1"')
        assert current_observer() is NULL_OBSERVER
        engine.search('"t2"')
        assert len(recording.traces) == 1
        assert recording.registry.get("queries.started").total() == 1

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
            assert "current_observer" not in inspect.getsource(
                inspect.getmodule(cls))

    def test_only_the_session_takes_an_observer(self):
        """The observer is a scope: no function under ``src/repro``
        but ``BossSession.__init__`` (and ``observing`` itself) takes an
        ``observer`` parameter, and no module but ``api.py`` stores
        ``self._observer``."""
        import repro

        allowed = {("api.py", "BossSession.__init__"),
                   ("observability/observer.py", "observing")}
        root = Path(repro.__file__).parent
        params, stores = [], []
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            tree = ast.parse(path.read_text())
            for qualname, function in _functions(tree):
                args = function.args
                names = {a.arg for a in (args.posonlyargs + args.args
                                         + args.kwonlyargs)}
                if "observer" in names and (rel, qualname) not in allowed:
                    params.append(f"{rel}::{qualname}")
            stores += [
                f"{rel}:{node.lineno}" for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and node.attr == "_observer" and rel != "api.py"
            ]
        assert params == []
        assert stores == []

    def test_one_module_computes_busy_windows(self):
        """The maintenance timeline has one owner: no module under
        ``src/repro`` but ``serving/target.py`` takes a ``max(...)``
        over ``busy_until``, and the serving contract names no clock."""
        import repro
        from repro.serving import ServingTarget

        root = Path(repro.__file__).parent
        windows = []
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            if rel == "serving/target.py":
                continue
            windows += [
                f"{rel}:{node.lineno}"
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "max"
                and "busy_until" in {
                    getattr(sub, "attr", getattr(sub, "id", None))
                    for arg in node.args for sub in ast.walk(arg)}
            ]
        assert windows == []
        assert "clock" not in vars(ServingTarget).get("__annotations__", {})
        assert not hasattr(ServingTarget, "clock")

    def test_shared_registry_can_be_injected(self):
        registry = MetricsRegistry()
        a = RecordingObserver(registry=registry)
        b = RecordingObserver(registry=registry)
        a.registry.counter("x", "shared").inc()
        b.registry.counter("x").inc()
        assert registry.get("x").total() == 2


def _functions(tree, prefix=""):
    """``(qualname, node)`` for every function in ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
            yield from _functions(node, f"{prefix}{node.name}.")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, f"{prefix}{node.name}.")


class TestScopeComposition:
    def test_one_scope_records_server_cluster_and_engines(self):
        """A scope opened around a serving run sees every layer under
        it: the serving loop, each leaf's resilience steps, the root
        merge and the leaf engines' own queries."""
        cluster, _ = make_faulty_cluster(
            synthetic_documents(num_docs=240, seed=11), 3,
            faults=[FaultConfig(permanent_failure_after=0), ZERO_FAULTS,
                    ZERO_FAULTS],
            policy=ResiliencePolicy(max_retries=1, allow_degraded=True),
            clock=VirtualClock(),
        )
        requests = build_requests(['"t0" OR "t1"', '"t2"', '"t0"'],
                                  TraceArrivals([0.0, 0.1, 0.2]))
        server = QueryServer(cluster, ServingConfig(workers=1, k=10),
                             service_time=lambda request, result: 0.05)
        recording = RecordingObserver()
        with observing(recording):
            report = server.serve(requests).report
        registry = recording.registry
        assert report.served == 3
        assert registry.get("serving.admitted").total() == 3
        assert registry.get("serving.served").total() == 3
        assert registry.get("serving.runs").total() == 1
        events = registry.get("cluster.resilience_events")
        assert events.value(event="shard_failed", shard="0") == 3
        assert registry.get("cluster.queries").total() == 3
        assert registry.get("cluster.degraded_queries").total() == 3
        # Two healthy leaves answer each of the three requests.
        completed = registry.get("queries.completed")
        assert completed.total() == 6
        assert completed.value(engine="BOSS", qtype="Q1") > 0
        assert len(recording.traces) == 6


class TestSessionScope:
    def test_host_split_query_leaves_one_trace(self):
        """A 20-term union runs as two device subqueries; only the host
        merge reports, so the query leaves one trace."""
        recording = RecordingObserver()
        session = BossSession(BossConfig(k=10), observer=recording)
        session.init(build_random_index(num_docs=300, vocab_size=30,
                                        seed=4))
        expression = " OR ".join(f'"t{i}"' for i in range(20))
        result = session.search(expression)
        assert result.hits
        assert len(recording.traces) == 1
        completed = recording.registry.get("queries.completed")
        assert completed.total() == 1
        assert recording.registry.get("queries.started") is None
        assert current_observer() is NULL_OBSERVER
