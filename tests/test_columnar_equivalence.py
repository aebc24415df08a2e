"""Columnar executor equivalence: bit-identical to the other engines.

The columnar executor (``executor="columnar"``, the default) scores
blocks with numpy and bulk-counts leader runs, but it is a wall-clock
optimization only: rankings (to the last float bit), every
:class:`WorkCounters` field, per-bucket traffic, the payload fetch order
(``fetch_log``, record by record) and full observability traces must
match the reference and fast executors exactly — across codecs, ET
ablations, k values, and warm/cold decoded caches.
"""

import pytest

from repro.core import BossAccelerator, BossConfig
from repro.core.engine import EXECUTORS
from repro.errors import QueryError
from repro.observability import RecordingObserver
from tests.conftest import build_random_index
from tests.test_differential import _random_queries
from tests.test_fastpath_equivalence import _assert_pair_identical


def _session_engines():
    from repro.api import BossSession

    session = BossSession()
    session.init(build_random_index(num_docs=100, vocab_size=8, seed=1))
    return [session.accelerator]


def _cluster_engines():
    from repro.faults import make_faulty_cluster
    from repro.workloads import synthetic_documents

    cluster, _ = make_faulty_cluster(
        synthetic_documents(num_docs=120, seed=3), 2, replication_factor=2)
    return cluster.engines + [
        leaf for group in cluster.replicas for leaf in group
    ]


def _segment_engines():
    from repro.live import LiveIndexWriter

    writer = LiveIndexWriter(buffer_docs=4)
    for i in range(10):
        writer.add_document(["alpha", f"w{i % 3}"])
    writer.flush()
    live = writer.index
    return [live._engine_for(segment) for segment in live.segments]


def _lucene_engines():
    from repro.baselines import LuceneEngine

    index = build_random_index(num_docs=100, vocab_size=8, seed=1)
    return [LuceneEngine(index)._executor]


_DEFAULT_ENGINE_BUILDERS = {
    "session": _session_engines,
    "cluster": _cluster_engines,
    "segments": _segment_engines,
    "lucene": _lucene_engines,
}


class TestExecutorSelection:
    def test_known_executors(self):
        assert EXECUTORS == ("reference", "fast", "columnar")
        index = build_random_index(num_docs=100, vocab_size=8, seed=1)
        for name in EXECUTORS:
            engine = BossAccelerator(index, BossConfig(k=5), executor=name)
            assert engine.executor == name

    def test_fast_path_false_is_the_reference_oracle(self):
        index = build_random_index(num_docs=100, vocab_size=8, seed=1)
        reference = BossAccelerator(index, fast_path=False)
        assert reference.executor == "reference"
        assert not reference.fast_path
        # An explicit executor overrides the fast_path flag entirely.
        engine = BossAccelerator(index, fast_path=False,
                                 executor="columnar")
        assert engine.executor == "columnar"
        assert engine.fast_path

    @pytest.mark.parametrize("builder", sorted(_DEFAULT_ENGINE_BUILDERS))
    def test_library_engines_default_to_columnar(self, builder):
        """Every engine library code builds with default arguments
        takes the production path."""
        engines = _DEFAULT_ENGINE_BUILDERS[builder]()
        assert engines
        assert [engine.executor for engine in engines] == \
            ["columnar"] * len(engines)

    def test_unknown_executor_rejected(self):
        index = build_random_index(num_docs=100, vocab_size=8, seed=1)
        with pytest.raises(QueryError):
            BossAccelerator(index, executor="simd")


@pytest.mark.parametrize("seed", [2, 41])
def test_columnar_modeled_metrics_bit_identical(seed):
    index = build_random_index(num_docs=900, vocab_size=28, seed=seed)
    queries = _random_queries(sorted(index), seed * 11, count=14)
    columnar = BossAccelerator(index, BossConfig(k=10),
                               executor="columnar")
    reference = BossAccelerator(index, BossConfig(k=10),
                                executor="reference")
    # Two passes: pass 2 runs entirely against the warm decoded cache
    # and the columnar executor's cross-query block-score cache.
    for pass_number in (1, 2):
        for expression in queries:
            _assert_pair_identical(columnar, reference, expression,
                                   (pass_number, expression))
    assert columnar.decoded_cache.hits > 0, "warm pass never hit the cache"


@pytest.mark.parametrize("scheme", ["BP", "VB", "S8b", "S16", "OptPFD",
                                    "PFD", "GVB"])
def test_columnar_equivalence_per_codec(scheme):
    index = build_random_index(num_docs=600, vocab_size=20, seed=77,
                               schemes=[scheme])
    queries = _random_queries(sorted(index), 19, count=8)
    columnar = BossAccelerator(index, BossConfig(k=10),
                               executor="columnar")
    fast = BossAccelerator(index, BossConfig(k=10), executor="fast")
    for expression in queries:
        _assert_pair_identical(columnar, fast, expression,
                               (scheme, expression))


def _ablation_configs():
    base = BossConfig(k=10)
    return {
        "default": base,
        "exhaustive": base.exhaustive(),
        "block_only": base.block_only(),
        "wand_only": BossConfig(k=10, et_block=False, et_wand=True),
        "interval3": BossConfig(k=10, et_interval_blocks=3),
    }


@pytest.mark.parametrize("name", sorted(_ablation_configs()))
def test_columnar_equivalence_under_et_ablations(name):
    """The leader-run bulk path only engages under the default flags;
    every ablation must fall back to the general loop with identical
    modeled output."""
    config = _ablation_configs()[name]
    index = build_random_index(num_docs=700, vocab_size=22, seed=5)
    queries = _random_queries(sorted(index), 23, count=10)
    columnar = BossAccelerator(index, config, executor="columnar")
    reference = BossAccelerator(index, config, executor="reference")
    for expression in queries:
        _assert_pair_identical(columnar, reference, expression,
                               (name, expression))


@pytest.mark.parametrize("k", [1, 3, 50, 100, 2000])
def test_columnar_equivalence_across_k(k):
    """k = 100 is the rerank depth (several accepts per leader-run
    window); k = 2000 is past every list, so the queue never fills and
    a whole query is the fill head."""
    index = build_random_index(num_docs=800, vocab_size=24, seed=9)
    queries = _random_queries(sorted(index), 31, count=10)
    columnar = BossAccelerator(index, BossConfig(k=k),
                               executor="columnar")
    reference = BossAccelerator(index, BossConfig(k=k),
                                executor="reference")
    for expression in queries:
        _assert_pair_identical(columnar, reference, expression,
                               (k, expression), k=k)


def _window_index(understate=None):
    """Two lists crafted so one leader-run window holds several accepts.

    Every document is 40 tokens long, so a term score is monotone in
    tf. ``lead`` is in all 300 documents (three blocks): tf 1 except
    docs 10..15, whose tf climbs 2..7 — with k = 2 the queue fills on
    docs 0 and 1, rejects the ties that follow and accepts those six in
    a row, each accept raising the cutoff. ``rare`` is in docs 13 and
    200, so the first window ends at ``limit_doc`` = 13, inside block 0
    and after three accepts.

    ``understate`` lowers a stored bound to the tf-4 score: ``"list"``
    the list's WAND bound, ``"block"`` block 0's bound. With exact
    bounds neither test can flip inside a window (an accepted score is
    at most its block's bound, and the new cutoff at most that score),
    so the replica's mid-window exits are reachable only through
    metadata that understates — which a loaded file may carry, and which
    the oracle follows without complaint.
    """
    from dataclasses import replace

    from repro.index import IndexBuilder

    builder = IndexBuilder()
    for doc in range(300):
        tf = doc - 8 if 10 <= doc <= 15 else 1
        tokens = ["lead"] * tf
        if doc in (13, 200):
            tokens.append("rare")
        builder.add_document(tokens + ["pad"] * (40 - len(tokens)))
    index = builder.build()
    lead = index.posting_list("lead")
    assert lead.num_blocks == 3
    tf4_score = index.scorer.term_score(lead.idf, 4, 12)
    if understate == "list":
        lead.max_term_score = tf4_score
    elif understate == "block":
        block = lead.blocks[0]
        lead.blocks[0] = replace(block, metadata=replace(
            block.metadata, max_term_score=tf4_score))
    return index


@pytest.mark.parametrize("understate", [None, "list", "block"])
def test_multi_accept_window_exits(understate):
    """A window's walk over its accepts ends where the oracle's next
    iteration decides differently: at ``limit_doc`` (exact bounds), when
    the leader is out-bid (understated list bound) or when the block
    bound falls under the cutoff (understated block bound) — after
    the accept that flips it, leaving the docs behind it unoffered."""
    index = _window_index(understate)
    columnar = BossAccelerator(index, BossConfig(k=2))
    reference = BossAccelerator(index, BossConfig(k=2),
                                executor="reference")
    for _ in range(2):  # second pass: warm decoded and score caches
        for expression in ('"lead"', '"lead" OR "rare"'):
            _assert_pair_identical(columnar, reference, expression,
                                   (understate, expression))
    hits = [hit.doc_id for hit in columnar.search('"lead"').hits]
    if understate is None:
        assert hits == [15, 14]
    else:
        # The cutoff passed the tf-4 bound at doc 14's accept (tf 6 in,
        # tf 4 out); doc 15 was above it in the same window and never
        # offered.
        assert hits == [14, 13]


def _assert_traces_identical(observer, reference_observer):
    assert len(observer.traces) == len(reference_observer.traces)
    for trace, reference_trace in zip(observer.traces,
                                      reference_observer.traces):
        assert trace.spans == reference_trace.spans
        assert trace.traffic == reference_trace.traffic
        assert trace.to_dict() == reference_trace.to_dict()


def test_traces_bit_identical_columnar_vs_fast():
    index = build_random_index(num_docs=800, vocab_size=25, seed=13)
    queries = _random_queries(sorted(index), 29, count=10)

    columnar_observer = RecordingObserver()
    fast_observer = RecordingObserver()
    columnar = BossAccelerator(index, BossConfig(k=10),
                               observer=columnar_observer,
                               executor="columnar")
    fast = BossAccelerator(index, BossConfig(k=10),
                           observer=fast_observer, executor="fast")
    for _ in range(2):  # second pass exercises the warm caches
        for expression in queries:
            columnar.search(expression)
            fast.search(expression)
    _assert_traces_identical(columnar_observer, fast_observer)


def test_equivalence_at_the_leader_run_gate():
    """Lists one posting short of, at, and one past the df from which a
    list leads runs mix run and general iterations in one query; the
    output must not show which iterations took which."""
    import random

    from repro.core.columnar import _LEADER_RUN_MIN_DF as gate
    from repro.index import IndexBuilder

    rng = random.Random(15)
    num_docs = 4 * gate
    docs = [["filler"] * rng.randrange(3, 30) for _ in range(num_docs)]
    terms = {"below": gate - 1, "at": gate, "above": gate + 1,
             "dense": 3 * gate}
    for term, df in terms.items():
        for doc in rng.sample(range(num_docs), df):
            docs[doc].extend([term] * rng.randrange(1, 5))
    builder = IndexBuilder()
    for doc in docs:
        builder.add_document(doc)
    index = builder.build()
    assert {t: index.posting_list(t).document_frequency
            for t in terms} == terms

    queries = [f'"{t}"' for t in terms] + [
        '"below" OR "at"', '"at" OR "above"', '"below" OR "above"',
        '"below" OR "at" OR "above"', '"dense" OR "below"',
        '"dense" OR "at" OR "above" OR "below"',
    ]
    observer, reference_observer = RecordingObserver(), RecordingObserver()
    columnar = BossAccelerator(index, BossConfig(k=10), observer=observer)
    reference = BossAccelerator(index, BossConfig(k=10),
                                observer=reference_observer,
                                executor="reference")
    for _ in range(2):  # second pass: warm decoded and score caches
        for expression in queries:
            _assert_pair_identical(columnar, reference, expression,
                                   expression)
    _assert_traces_identical(observer, reference_observer)
    # Only lists at or past the gate led runs (and so cached scores).
    assert 0 < len(columnar._columnar_scores) <= sum(
        index.posting_list(t).num_blocks
        for t, df in terms.items() if df >= gate
    )


def test_block_score_cache_is_bounded(monkeypatch):
    """Churning more distinct blocks than the cap never grows the
    block-score cache past it, and results stay exact across resets."""
    from repro.core import columnar as production

    cap = 8
    monkeypatch.setattr(production, "_SCORE_CACHE_LIMIT", cap)
    index = build_random_index(num_docs=4000, vocab_size=10, seed=12)
    # k past every df: no cutoff arms, so every block of every list is
    # scored and cached.
    k = 4000
    columnar = BossAccelerator(index, BossConfig(k=k))
    reference = BossAccelerator(index, BossConfig(k=k),
                                executor="reference")
    churned = 0
    for term in sorted(index):
        expression = f'"{term}"'
        _assert_pair_identical(columnar, reference, expression, expression)
        churned += index.posting_list(term).num_blocks
        assert len(columnar._columnar_scores) <= cap
    assert churned > 4 * cap


@pytest.mark.parametrize("scheme", ["BP", "VB", "S8b", "S16", "OptPFD",
                                    "PFD", "GVB"])
def test_block_scores_do_not_outlive_a_statistics_version(scheme):
    """The block-score hazard of a long-lived segment engine.

    The block-score cache is keyed by the identity of a decoded docID
    array, and a live segment's decoded arrays now outlive statistics
    versions. A list long enough to lead runs is queried, the corpus
    moves (adds *and* deletes: IDF and avgdl both change), and the same
    queries run again: the segment engine must equal the reference
    executor over the same view bit for bit, and the live index must
    equal a monolithic rebuild of the survivors — neither holds if a
    score vector, a dressed list or the scorer survives the version.
    """
    import random

    from repro.index.blocks import BLOCK_SIZE
    from repro.live import SegmentedIndex
    from tests.live.oplog import rebuild_monolith

    rng = random.Random(17)
    live = SegmentedIndex(schemes=[scheme], buffer_docs=4096)
    docs = {}

    def add(tokens):
        docs[live.add_document(tokens)] = tokens

    for i in range(2 * BLOCK_SIZE + 40):
        tokens = ["hot"] * rng.randrange(1, 4)
        tokens += ["filler"] * rng.randrange(2, 20)
        if i % 3 == 0:
            tokens += ["warm"] * rng.randrange(1, 3)
        add(tokens)
    live.seal()
    segment, = live.segments
    engine = live._engine_for(segment)
    assert segment.index.posting_list("hot").num_blocks >= 2
    queries = ['"hot"', '"hot" OR "warm"', '"warm" OR "hot" OR "filler"']

    def check(context):
        assert live._engine_for(segment) is engine
        reference = BossAccelerator(engine.index, engine.config,
                                    fast_path=False)
        monolith, id_map = rebuild_monolith(docs, live.stats, [scheme])
        overfetch = 10 + len(segment.tombstones)
        for expression in queries:
            for _ in range(2):  # the repeat reads this version's caches
                _assert_pair_identical(
                    engine, reference, expression,
                    (scheme, context, expression), k=overfetch,
                )
            assert [
                (hit.doc_id, round(hit.score, 9))
                for hit in live.search(expression, k=10).hits
            ] == [
                (id_map[hit.doc_id], round(hit.score, 9))
                for hit in monolith.search(expression, k=10).hits
            ], (scheme, context, expression)

    check("fresh")
    assert engine._columnar_scores, "no list led a run"
    misses = engine.decoded_cache.misses
    for step in range(2):
        for _ in range(25):
            add(["hot"] + ["pad"] * rng.randrange(30, 50))
        victims = [doc for doc in sorted(segment.doc_lengths)
                   if doc not in segment.tombstones]
        for doc in victims[step::7]:
            live.delete_document(doc)
        check(f"stale {step}")
        assert engine.index is not segment.index
    # ... while nothing payload-dependent was rebuilt.
    assert engine.decoded_cache.misses == misses


# ----------------------------------------------------------------------
# Admission at the queue: ``floor`` / ``exclude``
# ----------------------------------------------------------------------

def _admission_cases(rng, exhaustive, k):
    """``(floor, exclude)`` pairs aimed at one query's exhaustive hits:
    floors at, just under and between real scores (so ties with the
    floor occur), exclusions that hit the top ranks (so they matter)."""
    import math

    docs = [hit.doc_id for hit in exhaustive]
    scores = [hit.score for hit in exhaustive]
    pivot = scores[min(len(scores) - 1, rng.randrange(0, 2 * k))]
    top = set(rng.sample(docs[:3 * k], min(len(docs), 3 * k) // 2))
    scattered = set(rng.sample(docs, len(docs) // 3))
    return [
        (pivot, None),                              # a score equal: out
        (math.nextafter(pivot, -math.inf), None),   # strictly below: in
        (None, top),
        (None, scattered),
        (rng.uniform(0.0, scores[0]), top | scattered),
        (math.nextafter(pivot, -math.inf), set(docs[:k])),
        (scores[0], None),                          # nothing can get in
        (None, set(docs)),                          # everything refused
    ]


@pytest.mark.parametrize("qtype", ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6"])
def test_executors_agree_under_floor_and_exclude(qtype):
    """``BossAccelerator.search(floor=, exclude=)`` on every execution
    path: the three executors agree on hits, every work counter,
    per-bucket traffic and the fetch order, and each returns the
    definition — the exhaustive ranking, minus ``exclude``, minus
    scores at or under ``floor``, first k — to the last float bit."""
    import random

    from repro.workloads.queries import QuerySampler

    index = build_random_index(num_docs=900, vocab_size=28, seed=6)
    by_df = sorted(index, key=lambda t: -index.posting_list(t)
                   .document_frequency)
    rng = random.Random(f"admission:{qtype}")
    k = 10
    engines = {name: BossAccelerator(index, BossConfig(k=k), executor=name)
               for name in EXECUTORS}
    reference = engines["reference"]
    cases = 0
    for spec in QuerySampler(by_df, seed=3).sample_of_type(qtype, 4):
        expression = spec.expression
        exhaustive = reference.search(expression, k=10_000).hits
        if not exhaustive:
            continue
        for floor, exclude in _admission_cases(rng, exhaustive, k):
            context = (expression, floor,
                       None if exclude is None else len(exclude))
            refused = exclude or ()
            expected = [
                hit for hit in exhaustive
                if hit.doc_id not in refused
                and (floor is None or hit.score > floor)
            ][:k]
            assert reference.search(expression, floor=floor,
                                    exclude=exclude).hits == expected, \
                context
            for name in ("fast", "columnar"):
                for _ in range(2):  # the repeat runs on warm caches
                    _assert_pair_identical(
                        engines[name], reference, expression,
                        (name,) + context, floor=floor, exclude=exclude)
            cases += 1
    assert cases >= 16


def test_leader_run_fill_head_skips_excluded_docs():
    """A queue with room takes a leader run's window head in bulk; an
    excluded docID in that head is counted and refused, so the head is
    topped up from the docs behind it exactly as one-by-one offers
    would (k past the list: the whole query is fill heads)."""
    index = _window_index()
    reference = BossAccelerator(index, BossConfig(k=400),
                                executor="reference")
    columnar = BossAccelerator(index, BossConfig(k=400))
    for k in (5, 40, 400):
        for exclude in ({0, 1, 2, 3}, set(range(0, 300, 2)),
                        set(range(120, 140)) | {299}):
            for _ in range(2):
                _assert_pair_identical(
                    columnar, reference, '"lead"', (k, len(exclude)),
                    k=k, exclude=exclude)
            hits = columnar.search('"lead"', k=k, exclude=exclude).hits
            assert len(hits) == min(k, 300 - len(exclude))
            assert not exclude & {hit.doc_id for hit in hits}
