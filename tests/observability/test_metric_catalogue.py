"""The metric catalogue: every series every subsystem publishes, pinned.

One :class:`RecordingObserver` is driven once through every emitting
subsystem by a fixed script (:func:`drive`), and the registry snapshot
it leaves — names, kinds, help strings, label sets, values — must equal
``metric_catalogue.json``, which was generated from the commit *before*
the observer became ``emit(event)``. Every value is modeled (virtual
clocks, constant service times), so equality is exact.

The JSON is the parent's snapshot verbatim; :func:`expected_snapshot`
applies the three removals that refactor named (``fetch.bytes``,
``fetch.pattern_bytes``, the ``scheme`` label of ``decode.invocations``)
and the one corrected help string, — since batch rescoring — the
three decoded-cache hits of membership probes a vector reranker no
longer makes, and — since admission at the queue — the named
:data:`LIVE_ADMISSION_DELTAS` of the live scenario's one search, and
nothing else.
"""

import json
import random
from pathlib import Path

import pytest

from repro.cache import LRUBlockCache
from repro.clock import VirtualClock
from repro.cluster import MergeShards, Rebalancer, SplitShard
from repro.cluster.resilience import ResiliencePolicy
from repro.compression import get_codec
from repro.core import BossAccelerator, BossConfig
from repro.decompressor import DecompressionModule, program_for_scheme
from repro.errors import CrashError, LeafExecutionError
from repro.faults import CrashSchedule, FaultConfig, make_faulty_cluster
from repro.ioplanner import PlannedQueryServer, PlannerConfig
from repro.live import (
    DurableLiveIndexWriter,
    LiveIndexWriter,
    MergePolicy,
    recover,
)
from repro.observability import RecordingObserver
from repro.rerank import LinearReranker, TwoStageSearch
from repro.serving import (
    QueryServer,
    ServingConfig,
    TraceArrivals,
    build_requests,
    zipf_workload,
)
from repro.vector import (
    HybridSearch,
    VectorEngine,
    VectorReranker,
    build_ivf,
    embed_corpus,
)
from repro.workloads import synthetic_documents
from repro.workloads.corpus import make_corpus

from tests.conftest import build_random_index

CATALOGUE = Path(__file__).with_name("metric_catalogue.json")

VOCAB = [f"t{i}" for i in range(40)]
LIVE_VOCAB = [f"t{i}" for i in range(8)]


#: What admission at the queue moved, ``(series, labels, parent value,
#: value now)`` (a histogram's value is its ``sum``). All of it is the
#: live scenario's one search, ``"t0" OR "t1"`` at k = 5 over segments
#: holding tombstones: a segment is asked for k hits above the k-th best
#: score so far, tombstones refused at the queue, instead of for
#: ``k + tombstones`` hits from an empty queue.
LIVE_ADMISSION_DELTAS = (
    # The cutoff is armed from the first offer, so early termination
    # skips two blocks the overfetching search fetched and decoded ...
    ("fetch.blocks", {}, 167, 165),
    ("work.blocks_fetched", {"engine": "BOSS"}, 167, 165),
    ("decoded_cache.accesses", {"outcome": "miss"}, 52, 50),
    ("decode.invocations", {"path": "fast"}, 52, 50),
    ("work.postings_decoded", {"engine": "BOSS"}, 19380, 19376),
    ("scm.accesses", {"cls": "LD List"}, 348, 346),
    ("scm.bytes", {"cls": "LD List", "pattern": "sequential",
                   "tier": "scm"}, 16087, 16079),
    # ... and five documents never reach the scorer (a refused document
    # that does reach it is still evaluated and charged).
    ("work.docs_evaluated", {"engine": "BOSS"}, 7513, 7508),
    ("work.topk_inserts", {"engine": "BOSS"}, 7513, 7508),
    ("scm.accesses", {"cls": "LD Score"}, 7513, 7508),
    ("scm.bytes", {"cls": "LD Score", "pattern": "random",
                   "tier": "scm"}, 60104, 60064),
    # At most k live entries leave a segment, not k + tombstones; one
    # segment has nothing above the floor and stores no result at all.
    ("interconnect.bytes", {}, 1352, 1288),
    ("scm.bytes", {"cls": "ST Result", "pattern": "sequential",
                   "tier": "scm"}, 1352, 1288),
    ("scm.accesses", {"cls": "ST Result"}, 15, 14),
    # Modeled time follows the work: every stage that work feeds.
    ("pipeline.stage_seconds", {"engine": "BOSS", "stage": "decompression"},
     2.1626666666666667e-05, 2.1621666666666667e-05),
    ("pipeline.stage_seconds", {"engine": "BOSS", "stage": "memory"},
     9.882021625905793e-06, 9.868691998106059e-06),
    ("pipeline.stage_seconds", {"engine": "BOSS", "stage": "merger"},
     1.3262000000000001e-05, 1.3260000000000002e-05),
    ("pipeline.stage_seconds", {"engine": "BOSS", "stage": "scoring"},
     3.717833333333332e-06, 3.7153333333333315e-06),
    ("pipeline.stage_seconds", {"engine": "BOSS", "stage": "top-k"},
     7.512999999999999e-06, 7.507999999999998e-06),
    ("query.latency_us", {"engine": "BOSS"},
     56.182521625905785, 56.15469199810605),
    ("query.pipelined_us", {"engine": "BOSS"},
     52.86966666666667, 52.86666666666667),
)


def _constant(seconds):
    return lambda request, result: seconds


def _churn(writer, count, delete_every=0):
    rng = random.Random("catalogue")
    for i in range(count):
        tokens = [LIVE_VOCAB[i % len(LIVE_VOCAB)]]
        tokens += [rng.choice(LIVE_VOCAB) for _ in range(rng.randint(2, 11))]
        writer.add_document(tokens)
        if delete_every and (i + 1) % delete_every == 0:
            writer.delete_oldest()


def drive_engines(observer):
    """Queries that skip by ET and by overlap, on both executors."""
    index = build_random_index(num_docs=1500, vocab_size=40, seed=42)
    for executor in ("columnar", "reference"):
        engine = BossAccelerator(index, BossConfig(k=5), observer=observer,
                                 executor=executor)
        for expression in ('"t0" AND "t25" AND "t38"', '"t0" OR "t1"',
                           '"t0" OR "t1"', '"t3" AND ("t1" OR "t9")'):
            engine.search(expression)


def drive_cluster(observer):
    """A retry, a timeout, a failover, a failed shard — degraded, then
    the same faults under the strict policy (which raises)."""
    documents = synthetic_documents(num_docs=240, seed=11)
    faults = [
        FaultConfig(transient_failure_probability=1.0),
        FaultConfig(latency_spike_probability=1.0,
                    latency_spike_seconds=0.05),
        FaultConfig(permanent_failure_after=0),
    ]
    for policy in (
        ResiliencePolicy(max_retries=1, timeout_seconds=0.01,
                         allow_degraded=True),
        ResiliencePolicy(max_retries=1, timeout_seconds=0.01,
                         allow_degraded=False),
    ):
        cluster, _ = make_faulty_cluster(
            documents, 3, faults=faults, policy=policy,
            replication_factor=2, observer=observer, clock=VirtualClock(),
        )
        try:
            for expression in ('"t0" OR "t1"', '"t2" AND "t3"'):
                cluster.search(expression, k=10)
        except LeafExecutionError:
            assert not policy.allow_degraded
        else:
            assert policy.allow_degraded


def drive_serving(observer):
    """One run per shed reason, each over a constant service time."""
    index = build_random_index(num_docs=400, seed=11)
    burst = build_requests(['"t0"'] * 6,
                           TraceArrivals([0.0, 0.1, 0.2, 0.3, 2.5, 2.6]))
    for admission, deadline in (("reject", None), ("shed-oldest", None),
                                ("deadline", 1.5)):
        QueryServer(
            BossAccelerator(index, BossConfig(k=10)),
            ServingConfig(workers=1, queue_capacity=2, admission=admission,
                          deadline_seconds=deadline, k=10),
            service_time=_constant(1.0), observer=observer,
        ).serve(burst)


def drive_planner(observer):
    """Windows with tier hits, dedup, coalescing, prefetch; two tenants."""
    index = build_random_index(num_docs=400, seed=11)
    requests = zipf_workload(VOCAB, 48, rate_qps=4000.0, seed=3,
                             tenants=("gold", "bronze"))
    PlannedQueryServer(
        BossAccelerator(index, BossConfig(k=10)), PlannerConfig(k=10),
        observer=observer,
    ).serve(requests)


def drive_live(observer, wal_dir):
    """Add/delete/seal/merge (one merge all-tombstoned), then the same
    churn durably, a torn WAL tail, and its recovery."""
    writer = LiveIndexWriter(buffer_docs=4, policy=MergePolicy(fanout=3),
                             observer=observer)
    _churn(writer, 30, delete_every=7)
    writer.flush()
    writer.index.search('"t0" OR "t1"', k=5)
    while writer.delete_oldest() is not None:
        pass
    record = writer.scheduler.compact_all()
    assert record is not None and record.output_id is None

    durable = DurableLiveIndexWriter(wal_dir / "clean", buffer_docs=4,
                                     policy=MergePolicy(fanout=3),
                                     observer=observer)
    _churn(durable, 20, delete_every=7)
    durable.flush()
    durable.close()

    crashed = DurableLiveIndexWriter(
        wal_dir / "torn", buffer_docs=4, policy=MergePolicy(fanout=3),
        crash_schedule=CrashSchedule("mid_wal_append", 25),
    )
    with pytest.raises(CrashError):
        _churn(crashed, 40, delete_every=7)
    recovered, report = recover(wal_dir / "torn", observer=observer)
    assert report.torn is not None
    recovered.close()


def drive_rebalance(observer):
    """A published split, then a merge a crash aborts mid-stream."""
    documents = synthetic_documents(num_docs=240, seed=11)
    cluster, sharded = make_faulty_cluster(documents, 3,
                                           replication_factor=2)
    lo, hi = sharded.boundaries[0], sharded.boundaries[1]
    Rebalancer(cluster, sharded, observer=observer).execute(
        SplitShard(0, (lo + hi) // 2))
    with pytest.raises(CrashError):
        Rebalancer(
            cluster, sharded, observer=observer,
            crash=CrashSchedule("rebalance_mid_stream"),
        ).execute(MergeShards(0))


def drive_second_stages(observer):
    """Rerank, the ANN lane, and both hybrid fusions."""
    corpus = make_corpus("ccnews-like", scale=0.05, seed=1)
    embeddings = embed_corpus(corpus)
    vector = VectorEngine(build_ivf(embeddings, codec="fp32"), embeddings,
                          observer=observer)
    lexical = BossAccelerator(corpus.index, BossConfig(k=50),
                              observer=observer)
    TwoStageSearch(lexical, first_stage_k=50, observer=observer).search(
        '"term0001" OR "term0002"', k=10)
    vector.search('"term0003"', k=10)
    for mode in ("rerank", "rrf"):
        HybridSearch(lexical, vector, mode=mode, first_stage_k=30,
                     observer=observer).search('"term0001"', k=10)


def drive_block_level(observer):
    """One decompression-module decode; a DRAM block-cache miss + hit."""
    values = list(range(0, 300, 3))
    DecompressionModule(program_for_scheme("VB"), observer=observer).decode(
        get_codec("VB").encode(values), len(values))
    cache = LRUBlockCache(capacity_bytes=4096, observer=observer)
    assert cache.access("t0", 0, 1000) is False
    assert cache.access("t0", 0, 1000) is True


def drive(observer, wal_dir):
    drive_engines(observer)
    drive_cluster(observer)
    drive_serving(observer)
    drive_planner(observer)
    drive_live(observer, wal_dir)
    drive_rebalance(observer)
    drive_second_stages(observer)
    drive_block_level(observer)


def expected_snapshot():
    """The parent's snapshot, less what the refactor named as dropped."""
    expected = json.loads(CATALOGUE.read_text())
    # 1, 2: series nothing read (scm.bytes{cls="LD List"} and the fetch
    # log carry the same facts).
    del expected["fetch.bytes"]
    del expected["fetch.pattern_bytes"]
    # 3: decode.invocations keeps its path label, loses scheme.
    by_path = {}
    for sample in expected["decode.invocations"]["samples"]:
        path = sample["labels"]["path"]
        by_path[path] = by_path.get(path, 0) + sample["value"]
    expected["decode.invocations"]["samples"] = [
        {"labels": {"path": path}, "value": by_path[path]}
        for path in sorted(by_path)
    ]
    # The one help string that said the opposite of what it counts.
    expected["cluster.degraded_queries"]["help"] = (
        "merges that skipped a failed shard"
    )
    # Batch rescoring: the hybrid rerank query's VectorReranker reads no
    # candidate feature, so the three membership-probe lookups it used
    # to make (all hits) are gone. The LinearReranker run keeps its own.
    hit = expected["decoded_cache.accesses"]["samples"][0]
    assert hit == {"labels": {"outcome": "hit"}, "value": 49}
    hit["value"] = 46
    # Admission at the queue: the live scenario's search does less.
    for name, labels, parent, now in LIVE_ADMISSION_DELTAS:
        sample, = [sample for sample in expected[name]["samples"]
                   if sample["labels"] == labels]
        field = "sum" if "sum" in sample else "value"
        assert sample[field] == parent, (name, labels)
        sample[field] = now
    return expected


def test_admission_deltas_belong_to_the_live_scenario(tmp_path):
    """Every named delta is a series the live scenario feeds, and moves
    down; the rest of the script never passes a floor or an exclusion,
    which :func:`test_metric_catalogue` shows by pinning every other
    series to the parent's value."""
    observer = RecordingObserver()
    drive_live(observer, tmp_path)
    fed = observer.registry.snapshot()
    for name, labels, parent, now in LIVE_ADMISSION_DELTAS:
        assert now < parent, (name, labels)
        assert any(sample["labels"] == labels
                   for sample in fed[name]["samples"]), (name, labels)


def test_only_a_feature_model_probes_the_decoded_cache():
    """A LinearReranker's membership probes show up as decoded-cache
    hits on the first stage's engine; a VectorReranker makes none."""
    corpus = make_corpus("ccnews-like", scale=0.05, seed=1)
    lexical = BossAccelerator(corpus.index, BossConfig(k=50))
    cache = lexical.decoded_cache
    first = lexical.search('"term0001" OR "term0002"', k=50)

    def second_stage_lookups(reranker):
        pipeline = TwoStageSearch(lexical, reranker, first_stage_k=50)
        before = cache.hits, cache.misses
        pipeline._reranker.rescore(first, pipeline._features_for)
        return cache.hits - before[0], cache.misses - before[1]

    hits, misses = second_stage_lookups(LinearReranker())
    assert hits > 0 and misses == 0
    vector = VectorReranker(embed_corpus(corpus))
    assert second_stage_lookups(vector) == (0, 0)


def test_metric_catalogue(tmp_path):
    observer = RecordingObserver()
    drive(observer, tmp_path)
    snapshot = json.loads(json.dumps(observer.registry.snapshot()))
    expected = expected_snapshot()
    assert sorted(snapshot) == sorted(expected)
    for name in expected:
        assert snapshot[name] == expected[name], name
