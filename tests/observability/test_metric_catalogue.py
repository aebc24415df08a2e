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
longer makes, — since admission at the queue — the named
:data:`LIVE_ADMISSION_DELTAS` of the live scenario's one search, —
since the planner stopped prefetching — the two ``planner.prefetch_*``
series, and — since the hybrid rerank became the only second stage —
the three ``rerank.*`` series, the feature model's probe hits and its
share of the rerank stage sample, and — since a decoded-cache miss
decodes its whole list — the decoded-cache hits and misses, the fast
path's decode count and that count's help string, — since segment
files became ``.bossx`` v2 images — the recovery's modeled seconds, and
— since the observer became a scope — the engine queries of the
targets a scoped cluster, server or planner calls
(:func:`scoped_engine_growth`), and nothing else.

Each driver opens ``observing(observer)`` around exactly what the
parent handed the observer to.
"""

import json
import random
from pathlib import Path

import pytest

from repro.clock import VirtualClock
from repro.cluster import MergeShards, Rebalancer, SplitShard
from repro.cluster.resilience import ResiliencePolicy
from repro.compression import get_codec
from repro.core import BossAccelerator, BossConfig
from repro.core.engine import BlockActivity, QueryStarted
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
from repro.observability import RecordingObserver, observing
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
    build_ivf,
    embed_corpus,
)
from repro.vector.hybrid import RERANK_SECONDS_PER_CANDIDATE
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
        engine = BossAccelerator(index, BossConfig(k=5), executor=executor)
        with observing(observer):
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
            replication_factor=2, clock=VirtualClock(),
        )
        try:
            with observing(observer):
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
        server = QueryServer(
            BossAccelerator(index, BossConfig(k=10)),
            ServingConfig(workers=1, queue_capacity=2, admission=admission,
                          deadline_seconds=deadline, k=10),
            service_time=_constant(1.0),
        )
        with observing(observer):
            server.serve(burst)


def drive_planner(observer):
    """Windows with tier hits, dedup and coalescing; two tenants."""
    index = build_random_index(num_docs=400, seed=11)
    requests = zipf_workload(VOCAB, 48, rate_qps=4000.0, seed=3,
                             tenants=("gold", "bronze"))
    server = PlannedQueryServer(BossAccelerator(index, BossConfig(k=10)),
                                PlannerConfig(k=10))
    with observing(observer):
        server.serve(requests)


def drive_live(observer, wal_dir):
    """Add/delete/seal/merge (one merge all-tombstoned), then the same
    churn durably, a torn WAL tail (unobserved), and its recovery."""
    with observing(observer):
        writer = LiveIndexWriter(buffer_docs=4,
                                 policy=MergePolicy(fanout=3))
        _churn(writer, 30, delete_every=7)
        writer.flush()
        writer.index.search('"t0" OR "t1"', k=5)
        while writer.delete_oldest() is not None:
            pass
        record = writer.scheduler.compact_all()
        assert record is not None and record.output_id is None

        durable = DurableLiveIndexWriter(wal_dir / "clean", buffer_docs=4,
                                         policy=MergePolicy(fanout=3))
        _churn(durable, 20, delete_every=7)
        durable.flush()
        durable.close()

    crashed = DurableLiveIndexWriter(
        wal_dir / "torn", buffer_docs=4, policy=MergePolicy(fanout=3),
        crash_schedule=CrashSchedule("mid_wal_append", 25),
    )
    with pytest.raises(CrashError):
        _churn(crashed, 40, delete_every=7)
    with observing(observer):
        recovered, report = recover(wal_dir / "torn")
    assert report.torn is not None
    recovered.close()


def drive_rebalance(observer):
    """A published split, then a merge a crash aborts mid-stream."""
    documents = synthetic_documents(num_docs=240, seed=11)
    cluster, sharded = make_faulty_cluster(documents, 3,
                                           replication_factor=2)
    lo, hi = sharded.boundaries[0], sharded.boundaries[1]
    with observing(observer):
        Rebalancer(cluster, sharded).execute(SplitShard(0, (lo + hi) // 2))
        with pytest.raises(CrashError):
            Rebalancer(
                cluster, sharded,
                crash=CrashSchedule("rebalance_mid_stream"),
            ).execute(MergeShards(0))


def drive_second_stages(observer):
    """A deep first stage, the ANN lane, and both hybrid fusions."""
    corpus = make_corpus("ccnews-like", scale=0.05, seed=1)
    embeddings = embed_corpus(corpus)
    vector = VectorEngine(build_ivf(embeddings, codec="fp32"), embeddings)
    lexical = BossAccelerator(corpus.index, BossConfig(k=50))
    with observing(observer):
        lexical.search('"term0001" OR "term0002"', k=50)
        vector.search('"term0003"', k=10)
        for mode in ("rerank", "rrf"):
            HybridSearch(lexical, vector, mode=mode,
                         first_stage_k=30).search('"term0001"', k=10)


def drive_block_level(observer):
    """One decompression-module decode."""
    values = list(range(0, 300, 3))
    with observing(observer):
        DecompressionModule(program_for_scheme("VB")).decode(
            get_codec("VB").encode(values), len(values))


class EngineQueries(RecordingObserver):
    """Records what engines publish (query starts, block activity and
    each query's trace) and nothing else."""

    def emit(self, event):
        if isinstance(event, (QueryStarted, BlockActivity)):
            super().emit(event)


#: Engine queries the scoped runs make: 15 leaf queries under the
#: cluster, 14 served and 48 planned requests.
SCOPED_ENGINE_QUERIES = 77


def scoped_engine_growth():
    """The engine series of the targets a scoped cluster, server or
    planner calls. The parent handed those layers an observer but not
    the engines under them; a scope reaches both. The rebalancer calls
    no engine."""
    growth = EngineQueries()
    drive_cluster(growth)
    drive_serving(growth)
    drive_planner(growth)
    drive_rebalance(growth)
    assert len(growth.traces) == SCOPED_ENGINE_QUERIES
    return growth.registry.snapshot()


def _add_samples(expected, growth):
    """Add ``growth``'s samples into ``expected``, sample by sample.
    A grown float compares to rounding: the run interleaves the added
    queries with the others, and a float sum depends on its order."""
    for name, entry in growth.items():
        samples = expected.setdefault(name, dict(entry, samples=[]))[
            "samples"]
        for sample in entry["samples"]:
            base = next((s for s in samples
                         if s["labels"] == sample["labels"]), None)
            if base is None:
                base = dict(sample)
                samples.append(base)
            else:
                for field in ("value", "count", "sum"):
                    if field in sample:
                        base[field] += sample[field]
                if "counts" in sample:
                    base["counts"] = [a + b for a, b in zip(
                        base["counts"], sample["counts"])]
            for field in ("value", "sum"):
                if isinstance(base.get(field), float):
                    base[field] = pytest.approx(base[field], rel=1e-12)
        samples.sort(key=lambda s: sorted(s["labels"].items()))


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
    # 4: the planner stages nothing ahead of demand, so nothing reports
    # speculative staging.
    del expected["planner.prefetch_blocks"]
    del expected["planner.prefetch_bytes"]
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
    # One second stage: the feature-linear reranker went with its
    # wrapper. Its run is now the bare first stage it made, so every
    # engine series keeps its value; the ``rerank.*`` series repeated
    # ``hybrid.*{mode="rerank"}`` and go; its five membership-probe
    # lookups (all hits) are gone; and the host rerank stage sample is
    # the hybrid rerank query's alone.
    for name in ("rerank.queries", "rerank.candidates", "rerank.seconds"):
        del expected[name]
    hit["value"] = 41
    candidates, = [sample["value"]
                   for sample in expected["hybrid.candidates"]["samples"]
                   if sample["labels"] == {"mode": "rerank"}]
    stage, = [sample
              for sample in expected["pipeline.stage_seconds"]["samples"]
              if sample["labels"] == {"engine": "host", "stage": "rerank"}]
    assert stage["value"] == 0.00025
    stage["value"] = candidates * RERANK_SECONDS_PER_CANDIDATE
    # Admission at the queue: the live scenario's search does less.
    for name, labels, parent, now in LIVE_ADMISSION_DELTAS:
        sample, = [sample for sample in expected[name]["samples"]
                   if sample["labels"] == labels]
        field = "sum" if "sum" in sample else "value"
        assert sample[field] == parent, (name, labels)
        sample[field] = now
    # The list decoder: a decoded-cache miss decodes the missing block's
    # whole list and prefills its other blocks, which neither hit nor
    # miss when they go in. The engines' lookups stay 91; the 36 that
    # found a block its list's first miss had prefilled now hit. The
    # fast path decodes once per miss, a whole list, and its help
    # string now says so.
    accesses = expected["decoded_cache.accesses"]["samples"]
    assert accesses == [{"labels": {"outcome": "hit"}, "value": 41},
                        {"labels": {"outcome": "miss"}, "value": 50}]
    accesses[0]["value"] = 77
    accesses[1]["value"] = 14
    invocations = expected["decode.invocations"]
    fast = invocations["samples"][0]
    assert fast == {"labels": {"path": "fast"}, "value": 50}
    fast["value"] = 14
    invocations["help"] = (
        "decodes by execution path: fast, one per decoded-cache miss "
        "(the block's whole list); reference, one per fetched block"
    )
    # Segment files are .bossx v2 images plus a live section: the u32
    # length table and fixed-width directory make the files recovery
    # loads larger than the varint-coded ones, and its modeled I/O
    # longer by that read.
    recovery, = expected["live.recovery.last_modeled_seconds"]["samples"]
    assert recovery["value"] == 1.2094089673913044e-07
    recovery["value"] = 1.5504245923913044e-07
    # The observer is a scope: one opened around a cluster, a server or
    # the planner also hears the engines they call.
    _add_samples(expected, scoped_engine_growth())
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


def test_rerank_makes_no_lookup_beyond_its_first_stage():
    """Vector rescoring reads stored embeddings, not posting lists: a
    rerank query makes exactly the decoded-cache lookups of its first
    stage alone."""
    corpus = make_corpus("ccnews-like", scale=0.05, seed=1)
    embeddings = embed_corpus(corpus)
    vector = VectorEngine(build_ivf(embeddings, codec="fp32"), embeddings)

    def lookups(search):
        lexical = BossAccelerator(corpus.index, BossConfig(k=50))
        cache = lexical.decoded_cache
        search(lexical)
        return cache.hits, cache.misses

    query = '"term0001" OR "term0002"'
    first_stage = lookups(lambda lexical: lexical.search(query, k=50))
    assert sum(first_stage) > 0
    assert lookups(lambda lexical: HybridSearch(
        lexical, vector, mode="rerank", first_stage_k=50,
    ).search(query, k=10)) == first_stage


def test_metric_catalogue(tmp_path):
    observer = RecordingObserver()
    drive(observer, tmp_path)
    snapshot = json.loads(json.dumps(observer.registry.snapshot()))
    expected = expected_snapshot()
    assert sorted(snapshot) == sorted(expected)
    for name in expected:
        assert snapshot[name] == expected[name], name
