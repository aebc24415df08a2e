"""Columnar executor equivalence: bit-identical to the other engines.

The columnar executor (``executor="columnar"``, the default) scores
blocks with numpy and bulk-counts leader runs, but it is a wall-clock
optimization only: rankings (to the last float bit), every
:class:`WorkCounters` field, per-bucket traffic, the payload fetch order
(``recording_fetches``, record by record) and full observability traces must
match the reference and fast executors exactly — across codecs, ET
ablations, k values, and warm/cold decoded caches. The same executor
with leader runs off (``executor="fast"``) is pinned to the reference
by ``tests/test_fastpath_equivalence.py``.
"""

import pytest

from repro.cache import DEFAULT_DECODED_CACHE_BLOCKS
from repro.core import BossAccelerator, BossConfig
from repro.core.engine import EXECUTORS
from repro.errors import QueryError
from repro.observability import RecordingObserver, observing
from tests.conftest import ObservedAccelerator, _assert_pair_identical, \
    build_random_index
from tests.test_differential import _random_queries


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


def _window_index(understate=None, rare_docs=(13, 200)):
    """Two lists crafted so one leader-run window holds several accepts.

    Every document is 40 tokens long, so a term score is monotone in
    tf. ``lead`` is in all 300 documents (three blocks): tf 1 except
    docs 10..15, whose tf climbs 2..7 — with k = 2 the queue fills on
    docs 0 and 1, rejects the ties that follow and accepts those six in
    a row, each accept raising the cutoff. ``rare`` is in ``rare_docs``,
    by default 13 and 200, so the first window ends at ``limit_doc`` =
    13, inside block 0 and after three accepts.

    ``understate`` lowers a stored bound to the tf-4 score: ``"list"``
    the list's WAND bound, ``"block"`` block 0's bound. With exact
    bounds neither test can flip inside a window (an accepted score is
    at most its block's bound, and the new cutoff at most that score),
    so the replica's mid-window exits are reachable only through
    metadata that understates — which a loaded file may carry, and which
    the oracle follows without complaint.
    """
    from repro.index import IndexBuilder

    builder = IndexBuilder()
    for doc in range(300):
        tf = doc - 8 if 10 <= doc <= 15 else 1
        tokens = ["lead"] * tf
        if doc in rare_docs:
            tokens.append("rare")
        builder.add_document(tokens + ["pad"] * (40 - len(tokens)))
    index = builder.build()
    lead = index.posting_list("lead")
    assert lead.num_blocks == 3
    tf4_score = index.scorer.term_score(lead.idf, 4, 12)
    if understate == "list":
        lead.max_term_score = tf4_score
    elif understate == "block":
        lead.block_max[0] = tf4_score
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


@pytest.mark.parametrize("understate", [None, "list", "block"])
def test_short_window_exits(understate):
    """The doc-by-doc walk of a window no longer than ``_SHORT_WINDOW``
    ends where the numpy walk does. ``rare`` in docs 9 and 16 leaves
    the leader the window of docs 10..15 (tf 2..7, six postings): five
    accepts run to ``limit_doc`` with exact bounds, and an understated
    bound flips after the tf-5 accept at doc 13, leaving 14 and 15
    unoffered: the pivot moves to ``rare`` and the leader jumps to
    doc 16."""
    from repro.core.columnar import _SHORT_WINDOW

    assert 6 <= _SHORT_WINDOW
    expression = '"lead" OR "rare"'
    evaluated = {}
    for bound in (None, understate):
        index = _window_index(bound, rare_docs=(9, 16))
        columnar = BossAccelerator(index, BossConfig(k=2))
        reference = BossAccelerator(index, BossConfig(k=2),
                                    executor="reference")
        for _ in range(2):  # second pass: warm decoded cache
            _assert_pair_identical(columnar, reference, expression, bound)
        evaluated[bound] = columnar.search(expression).work.docs_evaluated
    assert evaluated[understate] == evaluated[None] - (2 if understate
                                                       else 0)


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
    columnar = ObservedAccelerator(columnar_observer, index,
                                   BossConfig(k=10), executor="columnar")
    fast = ObservedAccelerator(fast_observer, index, BossConfig(k=10),
                               executor="fast")
    for _ in range(2):  # second pass exercises the warm caches
        for expression in queries:
            columnar.search(expression)
            fast.search(expression)
    _assert_traces_identical(columnar_observer, fast_observer)


def test_decoded_cache_observability_counters():
    index = build_random_index(num_docs=500, vocab_size=18, seed=3)
    observer = RecordingObserver()
    engine = BossAccelerator(index, BossConfig(k=10))
    with observing(observer):
        for _ in range(2):
            engine.search('"t0" OR "t1"')
    snapshot = observer.registry.snapshot()
    assert "decoded_cache.accesses" in snapshot
    assert "decode.invocations" in snapshot
    cache = engine.decoded_cache
    assert cache.hits > 0 and cache.misses > 0
    assert 0.0 < cache.hit_rate < 1.0


def test_decoded_cache_ownership():
    """Production engines own one default-capacity cache each; the
    reference oracle owns none."""
    index = build_random_index(num_docs=400, vocab_size=15, seed=6)
    a = BossAccelerator(index, BossConfig(k=10))
    b = BossAccelerator(index, BossConfig(k=10))
    assert a.decoded_cache is not b.decoded_cache
    assert a.decoded_cache.capacity_blocks == DEFAULT_DECODED_CACHE_BLOCKS
    reference = BossAccelerator(index, BossConfig(k=10), fast_path=False)
    assert reference.decoded_cache is None


class _PathSpy:
    """Which branches of ``run_union_columnar`` the searches took.

    Installed over the engine's reference to the executor, it traces
    the lines the executor runs. A branch is named by a statement only
    it executes, found by its text below the comment that opens its
    block (a ``# ---- `` banner or a comment's first words), so the spy
    follows the code as it moves. ``probes`` counts the visits to a
    marked line on which a predicate over the executor's locals held,
    read before the line runs.
    """

    MARKERS = {
        "insertion": ("# ---- hand-off in place", "if slot == 2:"),
        "swap": ("# ---- hand-off in place", "alive[1] = moved"),
        "hand_off": ("# ---- hand-off in place", "if front[0] == target:"),
        "front_alone": ("# ---- hand-off in place",
                        "if front[2] + ET_EPSILON > cutoff:"),
        "new_leader": ("# ---- hand-off in place", "entry = front"),
        "in_block_test": ("# ---- hand-off in place",
                          "if (ids is not None and ids[-1] >= target"),
        "advance_in_place": ("# ---- hand-off in place",
                             "front[0] = ids[position]"),
        "one_posting": ("# One-posting window",
                        "tf = cursor._decoded_tfs[pos]"),
        # The four inline accepts into a full queue, and the test in
        # front of each that sends an excluded docID to ``offer``.
        "one_test": ("# One-posting window",
                     "if (len(topk_entries) >= topk_k"),
        "one_accept": ("# One-posting window", "topk._sequence += 1"),
        "short_test": ("# Short window:", "if (len(topk_entries) >= topk_k"),
        "short_accept": ("# Short window:", "topk._sequence += 1"),
        "hot_test": ("# Long window:", "if doc in exclude:"),
        "hot_accept": ("# Long window:", "topk._sequence += 1"),
        "general_test": ("# ---- general iteration", "elif len(topk_entries)"
                         " < topk_k or pivot_doc in exclude:"),
        "general_accept": ("# ---- general iteration",
                           "topk._sequence += 1"),
    }
    PROBES = {
        # The moved entry meets an equal (doc, -max) key.
        "equal_key": ("insertion", lambda f: (
            f["slot"] < f["num_alive"]
            and f["alive"][f["slot"]][:2] == [f["doc"], f["neg_max"]])),
        # A one-posting window whose next posting is in the block, and
        # one on the block's last posting.
        "one_mid": ("one_posting", lambda f: f["stop"] < f["size"]),
        "one_edge": ("one_posting", lambda f: f["stop"] == f["size"]),
        # The front's decoded block ends before its target.
        "past_block": ("in_block_test", lambda f: (
            f["ids"] is not None and f["ids"][-1] < f["target"])),
        # An excluded docID that beats a full queue's cutoff reaches an
        # accept site.
        "one_excluded": ("one_test", lambda f: (
            len(f["topk_entries"]) >= f["topk_k"]
            and f["doc"] in f["exclude"])),
        "short_excluded": ("short_test", lambda f: (
            len(f["topk_entries"]) >= f["topk_k"]
            and f["doc"] in f["exclude"])),
        "hot_excluded": ("hot_test", lambda f: f["doc"] in f["exclude"]),
        "general_excluded": ("general_test", lambda f: (
            len(f["topk_entries"]) >= f["topk_k"]
            and f["pivot_doc"] in f["exclude"])),
    }

    ACCEPTS = ("one_accept", "short_accept", "hot_accept", "general_accept")

    def __init__(self):
        import collections
        import inspect

        from repro.core import columnar

        lines, first = inspect.getsourcelines(columnar.run_union_columnar)
        self._names = {}
        for name, (banner, statement) in self.MARKERS.items():
            start = next(i for i, line in enumerate(lines)
                         if line.strip().startswith(banner))
            offset = next(i for i in range(start, len(lines))
                          if lines[i].strip() == statement)
            self._names[first + offset] = name
        self._code = columnar.run_union_columnar.__code__
        self.counts = collections.Counter()
        self.probes = collections.Counter()

    def _line(self, frame, event, arg):
        if event == "line":
            name = self._names.get(frame.f_lineno)
            if name is not None:
                self.counts[name] += 1
                for probe, (marker, holds) in self.PROBES.items():
                    if marker == name and holds(frame.f_locals):
                        self.probes[probe] += 1
        return self._line

    def _call(self, frame, event, arg):
        return self._line if frame.f_code is self._code else None

    def wrap(self, run):
        import sys

        def traced(*args, **kwargs):
            previous = sys.gettrace()
            sys.settrace(self._call)
            try:
                return run(*args, **kwargs)
            finally:
                sys.settrace(previous)
        return traced

    @property
    def ties(self):
        """Hand-offs whose front tied the second list."""
        return self.counts["hand_off"] - self.counts["front_alone"]


@pytest.fixture
def paths(monkeypatch):
    from repro.core import engine

    spy = _PathSpy()
    monkeypatch.setattr(engine, "run_union_columnar",
                        spy.wrap(engine.run_union_columnar))
    return spy


def _paced_index(gaps):
    """Leaders below, at and past one block, each paced by one list per
    gap in ``gaps``.

    Every ``lead_*`` list holds every docID from 0, so a leader run ends
    only at its pacer's next docID or at a block end; ``pace_g`` sits on
    docs ``g, 2g + 1, 3g + 2, ...`` up to the longest leader, so every
    window it leaves the leader holds at most ``g`` postings.
    """
    import random

    from repro.index import IndexBuilder
    from repro.index.blocks import BLOCK_SIZE

    rng = random.Random(15)
    lead_dfs = {"lead_below": BLOCK_SIZE - 1, "lead_at": BLOCK_SIZE,
                "lead_past": BLOCK_SIZE + 1}
    num_docs = max(lead_dfs.values())
    builder = IndexBuilder()
    builder.declare_documents([rng.randrange(20, 60)
                               for _ in range(num_docs)])
    for term, df in lead_dfs.items():
        builder.add_postings(term, *zip(*[(doc, rng.randrange(1, 6))
                                          for doc in range(df)]))
    for gap in gaps:
        builder.add_postings(f"pace_{gap}", *zip(*[
            (doc, rng.randrange(1, 6))
            for doc in range(gap, num_docs, gap + 1)]))
    index = builder.build()
    assert [index.posting_list(t).num_blocks for t in lead_dfs] == [1, 1, 2]
    return index, sorted(lead_dfs)


def test_equivalence_at_the_leader_run_gate(paths):
    """Leader-run windows of one posting, one posting short of, at and
    one past ``_SHORT_WINDOW`` — past it a window is scored by one numpy
    pass, up to it doc by doc, and a one-posting window inline — on
    leaders below, at and past one block mix the kinds of window in one
    query; the output must not show which windows took which, and only
    a window longer than ``_SHORT_WINDOW`` builds a score vector. The
    one-posting windows end both mid-block and on a block's last
    posting. k = 1000 never fills the queue."""
    from repro.core.columnar import _SHORT_WINDOW as w

    short_gaps, long_gap = (1, w - 1, w), w + 1
    index, leads = _paced_index(short_gaps + (long_gap,))
    short_queries = [f'"{lead}" OR "pace_{gap}"'
                     for lead in leads for gap in short_gaps] + [
        f'"{lead}" OR "pace_{w - 1}" OR "pace_{w}"' for lead in leads]
    long_queries = [f'"{lead}" OR "pace_{long_gap}"' for lead in leads]
    for k in (10, 1000):
        observer = RecordingObserver()
        reference_observer = RecordingObserver()
        columnar = ObservedAccelerator(observer, index, BossConfig(k=k))
        reference = ObservedAccelerator(reference_observer, index,
                                        BossConfig(k=k),
                                        executor="reference")
        for queries in (short_queries, long_queries):
            for _ in range(2):  # second pass: warm decoded, score caches
                for expression in queries:
                    _assert_pair_identical(columnar, reference, expression,
                                           (k, expression))
            if queries is short_queries:
                assert not columnar._columnar_scores, (k, "short window")
        assert columnar._columnar_scores, (k, "no long window")
        _assert_traces_identical(observer, reference_observer)
    assert paths.probes["one_mid"] > 0
    assert paths.probes["one_edge"] > 0


@pytest.mark.parametrize("cache", ["cold", "warm"])
@pytest.mark.parametrize("k", [1, 10])
@pytest.mark.parametrize("twins", [2, 4])
def test_tied_sort_keys(twins, k, cache):
    """Twin terms with identical postings and tfs share idf, list max
    and block maxima, so their entries tie on ``(doc, -max)`` at every
    step: only the sort's stability orders them, and that order decides
    which twin's block is fetched first — the fetch order pins it
    record by record. Twins union with each other and with one distinct
    list, before and after it in the query."""
    import random

    from repro.index import IndexBuilder

    rng = random.Random(40 + twins)
    num_docs = 600
    builder = IndexBuilder()
    builder.declare_documents([rng.randrange(20, 60)
                               for _ in range(num_docs)])
    twin_postings = [(doc, rng.randrange(1, 6)) for doc in
                     sorted(rng.sample(range(num_docs), 300))]
    terms = [f"twin{i}" for i in range(twins)]
    for term in terms:
        builder.add_postings(term, *zip(*twin_postings))
    builder.add_postings("other", *zip(*[
        (doc, rng.randrange(1, 6))
        for doc in sorted(rng.sample(range(num_docs), 200))]))
    index = builder.build()
    twins_or = " OR ".join(f'"{term}"' for term in terms)
    queries = [twins_or, f'{twins_or} OR "other"', f'"other" OR {twins_or}']
    columnar = BossAccelerator(index, BossConfig(k=k))
    reference = BossAccelerator(index, BossConfig(k=k),
                                executor="reference")
    if cache == "warm":
        for expression in queries:
            columnar.search(expression)
            reference.search(expression)
    for expression in queries:
        _assert_pair_identical(columnar, reference, expression,
                               (k, cache, expression))


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
    versions. A list whose leader-run windows build score vectors is
    queried, the corpus moves (adds *and* deletes: IDF and avgdl both
    change), and the same queries run again: the segment engine must
    equal the reference executor over the same view bit for bit, and
    the live index must equal a monolithic rebuild of the survivors —
    neither holds if a score vector, a dressed list or the scorer
    survives the version.
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
    assert engine._columnar_scores, "no window built a score vector"
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


# ----------------------------------------------------------------------
# Three or more lists: hand-offs in place
# ----------------------------------------------------------------------

def _union_corpus(seed, num_docs, dfs):
    """Token documents for terms ``t0, t1, ...`` with document
    frequencies ``dfs`` (fractions of ``num_docs``) and seeded tfs 1-6,
    padded to seeded lengths."""
    import random

    rng = random.Random(seed)
    postings = {}
    for number, fraction in enumerate(dfs):
        docs = rng.sample(range(num_docs), int(fraction * num_docs))
        postings[f"t{number}"] = {doc: rng.randrange(1, 7) for doc in docs}
    documents = []
    for doc in range(num_docs):
        tokens = []
        for term, tfs in postings.items():
            tokens += [term] * tfs.get(doc, 0)
        documents.append(tokens + ["pad"] * rng.randrange(20, 60))
    return documents, sorted(postings)


def _index_of(documents):
    from repro.index import IndexBuilder

    builder = IndexBuilder()
    for tokens in documents:
        builder.add_document(tokens)
    return builder.build()


def _any_of(terms):
    return " OR ".join(f'"{term}"' for term in terms)


def _assert_union_identical(index, expression, ks=(1, 10, 100, 1000)):
    """Columnar against the reference at each k in ``ks``, cold then
    warm."""
    for k in ks:
        columnar = BossAccelerator(index, BossConfig(k=k))
        reference = BossAccelerator(index, BossConfig(k=k),
                                    executor="reference")
        for cache in ("cold", "warm"):
            _assert_pair_identical(columnar, reference, expression,
                                   (k, cache, expression))


#: Four lists spread over two decades of df: hand-offs make new
#: leaders, advance fronts in place, and break on a tie or on a target
#: past the front's block.
_HAND_OFF_CORPUS = dict(seed=0, num_docs=1000, dfs=(0.05, 0.1, 0.3, 0.5))


def test_hand_offs_in_place_and_their_breaks(paths):
    documents, terms = _union_corpus(**_HAND_OFF_CORPUS)
    _assert_union_identical(_index_of(documents), _any_of(terms))
    assert paths.counts["new_leader"] > 0
    assert paths.counts["advance_in_place"] > 0
    # A moved leader that belongs right behind the second list.
    assert paths.counts["swap"] > 0
    # A weak front on the second list's docID: the loop top evaluates.
    assert paths.ties > 0
    # A weak front whose block ends before the second list's docID: the
    # loop top's block check searches its later blocks.
    assert paths.probes["past_block"] > 0


def test_hand_off_insertion_behind_equal_keys(paths):
    """Two lists given one list bound: a moved leader that lands on the
    other's docID meets an equal ``(doc, -max)`` key, and the insertion
    must leave it in front, where the stable sort keeps it."""
    documents, terms = _union_corpus(**_HAND_OFF_CORPUS)
    index = _index_of(documents)
    first, second = (index.posting_list(term) for term in ("t1", "t2"))
    first.max_term_score = second.max_term_score = max(
        first.max_term_score, second.max_term_score)
    _assert_union_identical(index, _any_of(terms))
    assert paths.probes["equal_key"] > 0


@pytest.mark.parametrize("understate", ["list", "block"])
def test_hand_offs_under_understated_bounds(understate, paths):
    """Bounds lowered under real scores, as in ``_window_index``: the
    hand-off's tests read them, and accepted scores pass them."""
    documents, terms = _union_corpus(**_HAND_OFF_CORPUS)
    index = _index_of(documents)
    plist = index.posting_list("t1")
    lowered = 0.6 * plist.max_term_score
    if understate == "list":
        plist.max_term_score = lowered
    else:
        plist.block_max[:] = [min(lowered, block_max)
                              for block_max in plist.block_max]
    _assert_union_identical(index, _any_of(terms))
    assert paths.counts["new_leader"] > 0
    assert paths.counts["advance_in_place"] > 0


def test_hand_offs_on_a_live_segment_with_floor_and_exclude(paths):
    """A live segment's engine searched the way the segmented index
    does: tombstones as ``exclude`` and a preloaded ``floor``, so
    hand-offs start on a full queue whose cutoff is the floor."""
    import math

    from repro.live import SegmentedIndex

    documents, terms = _union_corpus(**_HAND_OFF_CORPUS)
    live = SegmentedIndex(buffer_docs=4096)
    for tokens in documents:
        live.add_document(tokens)
    live.seal()
    segment, = live.segments
    for doc in range(0, len(documents), 5):
        live.delete_document(doc)
    engine = live._engine_for(segment)
    reference = BossAccelerator(engine.index, engine.config,
                                fast_path=False)
    expression = _any_of(terms)
    scores = [hit.score for hit in
              reference.search(expression, k=len(documents)).hits]
    hand_offs_on_a_floor = 0
    for k in (10, 100):
        for floor in (None, math.nextafter(scores[3 * k], -math.inf)):
            hand_offs = (paths.counts["new_leader"]
                         + paths.counts["advance_in_place"])
            for _ in range(2):
                _assert_pair_identical(
                    engine, reference, expression, (k, floor), k=k,
                    floor=floor, exclude=segment.tombstones)
            if floor is not None:
                hand_offs_on_a_floor += (paths.counts["new_leader"]
                                         + paths.counts["advance_in_place"]
                                         - hand_offs)
    assert hand_offs_on_a_floor > 0


def test_realistic_four_term_unions(paths):
    """The Q5 pool of a small preset corpus: four-term unions with
    Zipf-shaped lists, every path mixed in one query."""
    from repro import make_corpus
    from repro.workloads.queries import QuerySampler

    corpus = make_corpus("ccnews-like", scale=0.05)
    queries = [spec.expression for spec in QuerySampler(
        corpus.terms_by_df(), seed=7).sample_of_type("Q5", 24)]
    for k in (10, 100):
        columnar = BossAccelerator(corpus.index, BossConfig(k=k))
        reference = BossAccelerator(corpus.index, BossConfig(k=k),
                                    executor="reference")
        for cache in ("cold", "warm"):
            for expression in queries:
                _assert_pair_identical(columnar, reference, expression,
                                       (k, cache, expression))
    assert paths.counts["new_leader"] > 0
    assert paths.counts["advance_in_place"] > 0


# ----------------------------------------------------------------------
# Top-k accepts inline: a full queue's ``heapreplace``
# ----------------------------------------------------------------------

@pytest.fixture
def queues(monkeypatch):
    """Every ``TopKQueue`` the engines make, in order: the queue's own
    insert count, which the engine reports only as a floor under the
    executor's, is read straight from it."""
    from repro.core import engine
    from repro.core.topk import TopKQueue

    made = []

    def recorded(*args, **kwargs):
        made.append(TopKQueue(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(engine, "TopKQueue", recorded)
    return made


def _assert_queue_counted(engine, expression, queues, **kwargs):
    """The executor counted into the queue every offer it handled."""
    result = engine.search(expression, **kwargs)
    assert queues[-1].inserts == result.work.topk_inserts, expression


#: Three lists over two decades of df: once the queue is full, accepts
#: land in short windows, long windows and general iterations alike.
_ACCEPT_CORPUS = dict(seed=4, num_docs=3000, dfs=(0.02, 0.15, 0.7))


def test_inline_accepts_at_rerank_depths(paths, queues):
    """k = 100 (the rerank depth) and k = 1000 (the paper's): every
    accept site pushes into the heap, bit-identical to ``offer``."""
    documents, terms = _union_corpus(**_ACCEPT_CORPUS)
    index = _index_of(documents)
    for expression in (_any_of(terms), _any_of(terms[1:])):
        _assert_union_identical(index, expression, ks=(100, 1000))
        for k in (100, 1000):
            _assert_queue_counted(BossAccelerator(index), expression,
                                  queues, k=k)
    for name in _PathSpy.ACCEPTS:
        assert paths.counts[name] > 0, name


def test_inline_accepts_refuse_excluded_docs_on_a_live_segment(paths,
                                                               queues):
    """Tombstones as ``exclude``, with and without a preloaded
    ``floor``: an excluded docID that beats a full queue's cutoff
    reaches each accept site and goes to ``offer``, which refuses it."""
    import math

    from repro.live import SegmentedIndex

    documents, terms = _union_corpus(**_ACCEPT_CORPUS)
    live = SegmentedIndex(buffer_docs=4096)
    for tokens in documents:
        live.add_document(tokens)
    live.seal()
    segment, = live.segments
    for doc in range(0, len(documents), 3):
        live.delete_document(doc)
    engine = live._engine_for(segment)
    reference = BossAccelerator(engine.index, engine.config,
                                fast_path=False)
    expression = _any_of(terms)
    scores = [hit.score for hit in
              reference.search(expression, k=len(documents)).hits]
    for k in (100, 1000):
        for floor in (None, math.nextafter(scores[2 * k], -math.inf)):
            for _ in range(2):
                _assert_pair_identical(
                    engine, reference, expression, (k, floor), k=k,
                    floor=floor, exclude=segment.tombstones)
            _assert_queue_counted(engine, expression, queues, k=k,
                                  floor=floor, exclude=segment.tombstones)
    for name in _PathSpy.ACCEPTS:
        assert paths.counts[name] > 0, name
    for probe in ("one_excluded", "short_excluded", "hot_excluded",
                  "general_excluded"):
        assert paths.probes[probe] > 0, probe


@pytest.mark.parametrize("shape", ["Q2", "Q6"])
def test_intersection_accepts_refuse_excluded_docs(shape, queues):
    """Both fused intersection loops at k = 100, every third exhaustive
    hit excluded, so excluded matches beat a full queue's cutoff: the
    hits are the definition's, and every counter the reference's."""
    documents, terms = _union_corpus(seed=5, num_docs=3000,
                                     dfs=(0.3, 0.4, 0.5, 0.6))
    index = _index_of(documents)
    first, *rest = (f'"{term}"' for term in terms)
    expression = (f"{first} AND {rest[0]}" if shape == "Q2"
                  else f"{first} AND ({' OR '.join(rest)})")
    k = 100
    reference = BossAccelerator(index, BossConfig(k=k),
                                executor="reference")
    columnar = BossAccelerator(index, BossConfig(k=k))
    exhaustive = reference.search(expression, k=len(documents)).hits
    assert len(exhaustive) > 3 * k
    exclude = {hit.doc_id for hit in exhaustive[::3]}
    for cache in ("cold", "warm"):
        _assert_pair_identical(columnar, reference, expression,
                               (shape, cache), k=k, exclude=exclude)
    _assert_queue_counted(columnar, expression, queues, exclude=exclude)
    assert columnar.search(expression, exclude=exclude).hits == [
        hit for hit in exhaustive if hit.doc_id not in exclude][:k]
