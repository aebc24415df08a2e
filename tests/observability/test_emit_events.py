"""The ``emit(event)`` seam: which events each subsystem emits, in order.

A :class:`CollectingObserver` is the whole fake — two methods — so a
scripted run can assert event *types and order*, not just the registry
totals they add up to.
"""

import pytest

from repro.cache import BlockCacheAccess, LRUBlockCache
from repro.clock import VirtualClock
from repro.cluster import MergeShards, MoveReport, Rebalancer, SplitShard
from repro.cluster.resilience import (
    STRICT_POLICY,
    LeafOutcome,
    ResiliencePolicy,
    execute_leaf,
)
from repro.cluster.root import ClusterSearchResult
from repro.compression import get_codec
from repro.core import BossAccelerator, BossConfig
from repro.core.engine import BlockActivity, QueryStarted
from repro.decompressor import DecompressionModule, program_for_scheme
from repro.decompressor.pipeline import ModuleDecode
from repro.errors import CrashError, LeafExecutionError
from repro.faults import CrashSchedule, make_faulty_cluster
from repro.ioplanner import PlannedQueryServer, PlannerConfig
from repro.ioplanner.plan import FetchPlan
from repro.live import DurableLiveIndexWriter, LiveIndexWriter, \
    MergePolicy, recover
from repro.live.durable import ManifestWrite, RecoveryReport
from repro.live.merge import MergeRecord
from repro.live.segments import Segment
from repro.live.wal import WalAppend
from repro.live.writer import LiveState
from repro.observability import NULL_OBSERVER, Observer
from repro.rerank import RerankedResult, TwoStageSearch
from repro.serving import QueryServer, ServingConfig, TraceArrivals, \
    build_requests, zipf_workload
from repro.serving.server import (
    RequestAdmitted,
    RequestOutcome,
    ServingReport,
)
from repro.vector import HybridSearch, VectorEngine, build_ivf, embed_corpus
from repro.vector.engine import VectorSearchResult
from repro.vector.hybrid import HybridResult
from repro.workloads import synthetic_documents
from repro.workloads.corpus import make_corpus

from tests.conftest import build_random_index

QUERY_COMPLETE = "on_query_complete"


class CollectingObserver(Observer):
    """Appends every event; marks each completed query."""

    enabled = True

    def __init__(self):
        self.events = []

    def emit(self, event):
        self.events.append(event)

    def on_query_complete(self, result, engine="BOSS", cores_used=1):
        self.events.append(QUERY_COMPLETE)

    def kinds(self):
        return [e if isinstance(e, str) else type(e) for e in self.events]


@pytest.fixture()
def observer():
    return CollectingObserver()


@pytest.fixture(scope="module")
def index():
    return build_random_index(num_docs=400, seed=11)


@pytest.fixture(scope="module")
def documents():
    return synthetic_documents(num_docs=240, seed=11)


class FailingEngine:
    def search(self, query, k=None):
        raise RuntimeError("down")


class TestEngineEvents:
    @pytest.mark.parametrize("executor", ["columnar", "reference"])
    def test_three_events_per_query_none_per_block(self, index, observer,
                                                   executor):
        engine = BossAccelerator(index, BossConfig(k=5), observer=observer,
                                 executor=executor)
        results = [engine.search(q) for q in ('"t0" OR "t1"', '"t0" OR "t1"')]
        assert results[0].work.blocks_fetched > 3
        assert observer.kinds() == [QueryStarted, BlockActivity,
                                    QUERY_COMPLETE] * 2
        first, second = (e for e in observer.events
                         if isinstance(e, BlockActivity))
        assert first.work is results[0].work
        if executor == "reference":
            assert (first.decoded_hits, first.decoded_misses) == (0, 0)
            return
        # Cold pass misses, warm pass hits: the cache's own counts,
        # split per query.
        cache = engine.decoded_cache
        assert first.decoded_misses == cache.misses > 0
        assert second.decoded_misses == 0
        assert first.decoded_hits + second.decoded_hits == cache.hits
        assert second.decoded_hits == results[1].work.blocks_fetched

    def test_null_observer_sees_nothing(self, index):
        engine = BossAccelerator(index, BossConfig(k=5))
        engine.search('"t0"')
        assert engine.observer is NULL_OBSERVER
        assert NULL_OBSERVER.emit(object()) is None


class TestClusterEvents:
    def test_leaf_outcomes_then_the_merge(self, documents, observer):
        cluster, _ = make_faulty_cluster(
            documents, 3, observer=observer, clock=VirtualClock(),
            policy=ResiliencePolicy(max_retries=1, allow_degraded=True),
        )
        merged = cluster.search('"t0" OR "t1"', k=10)
        assert observer.kinds() == [LeafOutcome] * 3 + [ClusterSearchResult]
        assert observer.events[:3] == merged.leaf_outcomes
        assert observer.events[3] is merged

    def test_execute_leaf_emits_its_outcome_when_it_raises(self, observer):
        policy = ResiliencePolicy(max_retries=1, allow_degraded=False)
        with pytest.raises(LeafExecutionError):
            execute_leaf([FailingEngine(), FailingEngine()], "q", 10,
                         policy, 2, observer=observer, clock=VirtualClock())
        (outcome,) = observer.events
        assert isinstance(outcome, LeafOutcome)
        assert outcome.failed and outcome.shard_index == 2
        assert (outcome.retries, outcome.failovers) == (2, 1)

    def test_strict_fast_path_emits_on_both_exits(self, index, observer):
        engine = BossAccelerator(index, BossConfig(k=5))
        ok = execute_leaf([engine], '"t0"', 5, STRICT_POLICY, 0,
                          observer=observer)
        with pytest.raises(LeafExecutionError):
            execute_leaf([FailingEngine()], "q", 5, STRICT_POLICY, 1,
                         observer=observer)
        assert observer.events[0] is ok
        assert [e.shard_index for e in observer.events] == [0, 1]
        assert not observer.events[1].failed  # raised, never degraded


class TestServingEvents:
    def test_admissions_then_dispositions_then_the_report(self, index,
                                                          observer):
        requests = build_requests(['"t0"'] * 3,
                                  TraceArrivals([0.0, 0.1, 0.2]))
        result = QueryServer(
            BossAccelerator(index, BossConfig(k=10)),
            ServingConfig(workers=1, queue_capacity=1, k=10),
            service_time=lambda request, result: 1.0, observer=observer,
        ).serve(requests)
        assert observer.kinds() == [
            RequestAdmitted,   # 0.0: dispatched at once
            RequestAdmitted,   # 0.1: queued
            RequestOutcome,    # 0.2: queue full, shed
            RequestOutcome,    # 1.0: first served
            RequestOutcome,    # 2.0: second served
            ServingReport,
        ]
        assert [e.queue_depth for e in observer.events[:2]] == [0, 1]
        shed, first, second = observer.events[2:5]
        assert not shed.served and shed.shed_reason == "queue_full"
        assert first.served and second.served
        assert observer.events[5] is result.report

    def test_planner_emits_one_plan_per_window(self, index, observer):
        requests = zipf_workload([f"t{i}" for i in range(40)], 24,
                                 rate_qps=4000.0, seed=3)
        result = PlannedQueryServer(
            BossAccelerator(index, BossConfig(k=10)), PlannerConfig(k=10),
            observer=observer,
        ).serve(requests)
        plans = [e for e in observer.events if isinstance(e, FetchPlan)]
        assert len(plans) == result.planner.windows
        assert sum(p.prefetch_bytes for p in plans) == \
            result.planner.prefetch_bytes > 0
        assert observer.kinds().count(RequestAdmitted) == 24
        assert observer.kinds()[-1] is ServingReport


class TestLiveEvents:
    def test_seal_then_state(self, observer):
        writer = LiveIndexWriter(buffer_docs=2, observer=observer)
        writer.add_document(["a", "b"])
        writer.add_document(["a", "c"])
        assert observer.kinds() == [LiveState,           # first add
                                    Segment, LiveState,  # second add seals
                                    LiveState]
        assert observer.events[1].segment_id == writer.scheduler.seals[0]

    def test_merge_record_is_the_event(self, observer):
        writer = LiveIndexWriter(buffer_docs=1, observer=observer,
                                 policy=MergePolicy(fanout=2))
        writer.add_document(["a"])
        writer.add_document(["b"])
        merges = [e for e in observer.events if isinstance(e, MergeRecord)]
        assert merges == writer.scheduler.records and merges

    def test_durable_writer_and_recovery(self, tmp_path, observer):
        writer = DurableLiveIndexWriter(tmp_path / "wal", buffer_docs=2,
                                        observer=observer)
        writer.add_document(["a", "b"])
        assert observer.kinds() == [ManifestWrite,  # v0 at open
                                    WalAppend, LiveState]
        crashed = DurableLiveIndexWriter(
            tmp_path / "torn", buffer_docs=2,
            crash_schedule=CrashSchedule("mid_wal_append", 4),
        )
        with pytest.raises(CrashError):
            for i in range(6):
                crashed.add_document([f"w{i}"])
        del observer.events[:]
        recovered, report = recover(tmp_path / "torn", observer=observer)
        assert observer.kinds()[-2:] == [RecoveryReport, LiveState]
        assert observer.events[-2] is report
        assert WalAppend in observer.kinds()  # replay re-charges frames
        recovered.close()
        writer.close()


class TestRebalanceEvents:
    def _cluster(self, documents):
        return make_faulty_cluster(documents, 3, replication_factor=2)

    def test_published_move_reports_every_state(self, documents, observer):
        cluster, sharded = self._cluster(documents)
        lo, hi = sharded.boundaries[0], sharded.boundaries[1]
        report = Rebalancer(cluster, sharded, observer=observer).execute(
            SplitShard(0, (lo + hi) // 2))
        assert observer.events == [report]
        assert report.states == ["planned", "streaming", "published"]

    def test_aborted_move_carries_the_steps_taken(self, documents,
                                                  observer):
        cluster, sharded = self._cluster(documents)
        rebalancer = Rebalancer(cluster, sharded, observer=observer,
                                crash=CrashSchedule("rebalance_mid_stream"))
        with pytest.raises(CrashError):
            rebalancer.execute(MergeShards(0))
        (report,) = observer.events
        assert isinstance(report, MoveReport) and report.aborted
        assert report.states == ["planned", "streaming"]


class TestSecondStageEvents:
    def test_rerank_vector_hybrid(self, observer):
        corpus = make_corpus("ccnews-like", scale=0.05, seed=1)
        embeddings = embed_corpus(corpus)
        vector = VectorEngine(build_ivf(embeddings, codec="fp32"),
                              embeddings, observer=observer)
        lexical = BossAccelerator(corpus.index, BossConfig(k=50))

        TwoStageSearch(lexical, first_stage_k=20, observer=observer).search(
            '"term0001"', k=5)
        vector.search('"term0003"', k=5)
        assert observer.kinds() == [RerankedResult, VectorSearchResult]

        del observer.events[:]
        HybridSearch(lexical, vector, mode="rerank", first_stage_k=20,
                     observer=observer).search('"term0001"', k=5)
        assert observer.kinds() == [RerankedResult, HybridResult]

        del observer.events[:]
        HybridSearch(lexical, vector, mode="rrf", first_stage_k=20,
                     observer=observer).search('"term0001"', k=5)
        assert observer.kinds() == [VectorSearchResult, HybridResult]


class TestBlockLevelEvents:
    def test_module_decode(self, observer):
        values = [1, 5, 9]
        DecompressionModule(program_for_scheme("VB"),
                            observer=observer).decode(
            get_codec("VB").encode(values), len(values))
        assert observer.events == [ModuleDecode("VB", 3)]

    def test_block_cache_miss_then_hit(self, observer):
        cache = LRUBlockCache(capacity_bytes=4096, observer=observer)
        cache.access("t0", 0, 1000)
        cache.access("t0", 0, 1000)
        assert observer.events == [BlockCacheAccess(False, 1000),
                                   BlockCacheAccess(True, 1000)]
