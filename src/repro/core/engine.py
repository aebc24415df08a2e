"""The BOSS accelerator: query execution over one memory node's shard.

:class:`BossAccelerator` models the device of Figure 4: it accepts query
expressions through the offloading API, normalizes them, and executes
them on the BOSS core pipeline —

    block fetch -> decompression -> intersection/union -> scoring -> top-k

Execution is functionally exact (true BM25 top-k) and annotated with the
work and traffic measurements the performance model consumes.

Query routing (Section IV-B):

* **union** (term, or OR of terms): the union module's hardware WAND with
  the block fetch module's score-estimation ET;
* **intersection** (AND of terms): pipelined SvS with overlap-check block
  skipping;
* **mixed** (AND over terms and OR-groups, e.g. Q6): intersections first —
  the OR-groups run as merged streams feeding the intersection unit, so
  every posting list is fetched at most once and nothing spills to SCM;
* any other shape is rewritten to a union of intersections
  (``push_intersections_down``) and executed branch by branch.

Queries with more than 4 terms occupy multiple cores (the mergers chain,
Section IV-D); the timing model's ``cores_used`` counts them.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import (
    Callable,
    Collection,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.columnar import (
    run_grouped_intersection_fast,
    run_union_columnar,
)
from repro.core.cursor import SKIP_ET, SKIP_OVERLAP, ListCursor, settle
from repro.core.groups import GroupCursor
from repro.core.intersection import run_grouped_intersection
from repro.core.query import (
    AndNode,
    OrNode,
    QueryNode,
    TermNode,
    as_query,
    push_intersections_down,
)
from repro.core.result import SearchResult
from repro.core.topk import DEFAULT_K, TopKQueue
from repro.core.union import run_union
from repro.cache import DecodedBlockCache
from repro.errors import QueryError
from repro.index.index import InvertedIndex
from repro.observability.observer import current_observer
from repro.scm.traffic import (
    AccessClass,
    AccessPattern,
    FetchRecord,
    TrafficCounter,
)
from repro.sim.metrics import WorkCounters

#: Bytes of per-document scoring metadata fetched per evaluated document
#: (4 B pre-computed BM25 normalizer + 4 B document descriptor).
SCORE_METADATA_BYTES = 8

#: Bytes per result entry shipped to the host (4 B docID + 4 B score).
RESULT_ENTRY_BYTES = 8

#: Executor names the engine accepts. ``reference`` is the oracle
#: (:mod:`repro.core.union`, :mod:`repro.core.intersection`, per-value
#: decoders, no decoded-block cache); ``columnar`` is the production
#: path (:mod:`repro.core.columnar`). ``fast`` is ``columnar`` with
#: leader runs off; the benchmark still probes it by name, so retiring
#: it is a later benchmark PR's job. All three are pinned bit-identical
#: by the equivalence suites; they differ only in host-side wall clock.
EXECUTORS = ("reference", "fast", "columnar")

#: The open :func:`recording_fetches` scope's logs, or None.
_FETCHES: ContextVar[Optional[Dict]] = ContextVar("fetches", default=None)

#: Opens one query's cursor on a term with a skip class: what the
#: execution paths get from :meth:`BossAccelerator.search`, which
#: settles every cursor it opened when the query is done.
OpenCursor = Callable[[str, str], ListCursor]


@contextmanager
def recording_fetches() -> Iterator[Dict["BossAccelerator",
                                         List[FetchRecord]]]:
    """Record every block payload fetch made inside the ``with`` block.

    Yields ``{engine: [FetchRecord, ...]}``: each
    :class:`BossAccelerator` that built a cursor in the scope, in
    first-use order, with its fetches in fetch order — whatever wraps
    the engine (a session, a cluster root and its replicas, a fault
    wrapper, a live index's segments, a hybrid first stage). The
    input to the cache simulator, the core simulator and the I/O
    planner. The scope is the calling thread's context: queries another
    thread or process runs are not recorded (inside the scope the batch
    driver keeps a batch in one process), and an inner scope records
    alone until it closes.
    """
    fetches: Dict[BossAccelerator, List[FetchRecord]] = {}
    token = _FETCHES.set(fetches)
    try:
        yield fetches
    finally:
        _FETCHES.reset(token)


def fetches_recorded() -> bool:
    """Whether a :func:`recording_fetches` scope is open here."""
    return _FETCHES.get() is not None


@dataclass(frozen=True)
class QueryStarted:
    """A query entered an engine's ``search()`` (observer event)."""

    engine: str

    def publish_metrics(self, registry) -> None:
        registry.counter(
            "queries.started", "queries entering search()"
        ).inc(engine=self.engine)


@dataclass(frozen=True)
class BlockActivity:
    """What one finished query did per block (observer event).

    Built once per query from counts that exist anyway — the query's
    :class:`WorkCounters` and the engine's decoded-block cache — so the
    cursor's inner loop never calls the observer. On the production
    path a decode happens exactly when the cache misses, and decodes
    the missing block's whole list (its other blocks then count as
    hits as the cursor reads them); the reference path keeps no cache
    and decodes every fetched block.
    """

    work: WorkCounters
    decoded_hits: int
    decoded_misses: int
    fast_path: bool

    def publish_metrics(self, registry) -> None:
        def count(name, help, amount, **labels):
            if amount:  # a zero count publishes no sample
                registry.counter(name, help).inc(amount, **labels)

        work = self.work
        count("fetch.blocks", "compressed payload fetches",
              work.blocks_fetched)
        skips = "blocks skipped without decoding"
        count("fetch.blocks_skipped", skips, work.blocks_skipped_et,
              mechanism=SKIP_ET)
        count("fetch.blocks_skipped", skips, work.blocks_skipped_overlap,
              mechanism=SKIP_OVERLAP)
        lookups = "decoded-block cache lookups"
        count("decoded_cache.accesses", lookups, self.decoded_hits,
              outcome="hit")
        count("decoded_cache.accesses", lookups, self.decoded_misses,
              outcome="miss")
        decodes = ("decodes by execution path: fast, one per decoded-"
                   "cache miss (the block's whole list); reference, one "
                   "per fetched block")
        if self.fast_path:
            count("decode.invocations", decodes, self.decoded_misses,
                  path="fast")
        else:
            count("decode.invocations", decodes, work.blocks_fetched,
                  path="reference")


@dataclass(frozen=True)
class BossConfig:
    """What a query runs with: the top-k depth and the early-termination
    mechanisms. The device itself (Table I: 8 cores at 1 GHz, four
    decompression and four scoring modules) is
    :class:`repro.sim.timing.BossTimingModel`'s, not a setting here."""

    k: int = DEFAULT_K
    #: Block-level early termination (score-estimation unit).
    et_block: bool = True
    #: Document-level early termination (union module WAND).
    et_wand: bool = True
    #: Pruning-interval length in blocks for the score-estimation unit.
    #: 1 gives per-block bounds (tightest pruning); larger values model
    #: the paper's "longer intervals" latency trade-off (Section VI) at
    #: the cost of looser bounds — sweepable in the ablation bench.
    et_interval_blocks: int = 1

    def exhaustive(self) -> "BossConfig":
        """The BOSS-exhaustive ablation of Figure 13 (no ET at all)."""
        return replace(self, et_block=False, et_wand=False)

    def block_only(self) -> "BossConfig":
        """The BOSS-block-only ablation of Figure 14 (block ET only)."""
        return replace(self, et_block=True, et_wand=False)


class BossAccelerator:
    """Near-data search accelerator bound to one shard's inverted index."""

    def __init__(self, index: InvertedIndex,
                 config: Optional[BossConfig] = None,
                 fast_path: bool = True,
                 executor: Optional[str] = None) -> None:
        self._index = index
        self._config = BossConfig() if config is None else config
        #: Which executor runs queries. ``None`` takes the production
        #: path, or the reference oracle when ``fast_path=False``; an
        #: explicit name overrides ``fast_path`` entirely.
        if executor is None:
            executor = "columnar" if fast_path else "reference"
        elif executor not in EXECUTORS:
            raise QueryError(
                f"unknown executor {executor!r}; expected one of {EXECUTORS}"
            )
        self._executor = executor
        #: Production path: bulk array decode behind a host-side
        #: decoded-block cache (the reference path owns none).
        self._fast_path = executor != "reference"
        self._decoded_cache = (
            DecodedBlockCache() if self._fast_path else None
        )
        #: Cross-query block-score cache of the leader runs (block
        #: scores depend only on the index snapshot).
        self._columnar_scores: Dict[int, tuple] = {}

    def _rebind(self, index) -> None:
        """Serve ``index`` from now on (internal to :mod:`repro.live`).

        ``index`` must hold the payloads of the current one under new
        statistics. Decoded blocks depend only on payloads, so the
        decoded cache stays; block scores depend on IDF and normalizers
        and the cache is keyed by decoded-array identity alone, so it
        must not survive the swap.
        """
        self._index = index
        self._columnar_scores = {}

    @property
    def index(self) -> InvertedIndex:
        return self._index

    @property
    def config(self) -> BossConfig:
        return self._config

    @property
    def fast_path(self) -> bool:
        return self._fast_path

    @property
    def executor(self) -> str:
        """The executor implementation this engine routes queries to."""
        return self._executor

    @property
    def decoded_cache(self):
        """The engine's :class:`DecodedBlockCache` (or None)."""
        return self._decoded_cache

    def search(self, query: Union[str, QueryNode], k: int = None, *,
               floor: Optional[float] = None,
               exclude: Optional[Collection[int]] = None) -> SearchResult:
        """Execute a query and return the ranked top-k with measurements.

        ``query`` may be a paper-syntax expression string (terms quoted,
        ``AND``/``OR``, parentheses) or a pre-built AST node.

        ``floor`` and ``exclude`` are what a caller searching one corpus
        in pieces already knows (:mod:`repro.core.topk`, "Admission"):
        the result is the top-k of the matching documents not in
        ``exclude`` whose score is above ``floor``. A refused document
        that reaches the scorer is evaluated and charged like any other.
        """
        node = as_query(query)
        self._check_terms(node)
        k = self._config.k if k is None else k
        obs = current_observer()
        if obs.enabled:
            obs.emit(QueryStarted("BOSS"))
            lookups = self._decoded_lookups()

        work = WorkCounters()
        traffic = TrafficCounter()
        topk = TopKQueue(k, floor=floor, exclude=exclude)
        cursors: List[ListCursor] = []

        def open_cursor(term: str, skip_class: str) -> ListCursor:
            fetches = _FETCHES.get()
            cursor = ListCursor(
                self._index.posting_list(term), work, traffic,
                skip_class=skip_class,
                fetch_log=(None if fetches is None
                           else fetches.setdefault(self, [])),
                decoded_cache=self._decoded_cache,
            )
            cursors.append(cursor)
            return cursor

        if self._is_term_or_term_union(node):
            self._execute_union(node, topk, work, open_cursor)
        elif isinstance(node, AndNode) and all(
            self._is_term_or_term_union(c) for c in node.children
        ):
            self._execute_and_of_groups(node, topk, work, open_cursor)
        else:
            self._execute_general(node, topk, work, open_cursor)

        hits = topk.results()
        work.topk_inserts = max(work.topk_inserts, topk.inserts)

        # Posting-list loads: the query's one LD List record, first of
        # its buckets as the cursors' first metadata reads were.
        settle(cursors)
        # Scoring metadata loads: one small random read per evaluated doc.
        traffic.record(
            AccessClass.LD_SCORE,
            AccessPattern.RANDOM,
            SCORE_METADATA_BYTES * work.docs_evaluated,
            accesses=work.docs_evaluated,
        )
        # Only the top-k leaves the device: a result store plus the host
        # transfer across the shared interconnect.
        result_bytes = RESULT_ENTRY_BYTES * len(hits)
        traffic.record(
            AccessClass.ST_RESULT,
            AccessPattern.SEQUENTIAL,
            result_bytes,
            accesses=1 if hits else 0,
        )

        result = SearchResult(
            query=node,
            hits=hits,
            traffic=traffic,
            work=work,
            interconnect_bytes=result_bytes,
        )
        if obs.enabled:
            hits, misses = self._decoded_lookups()
            obs.emit(BlockActivity(work, hits - lookups[0],
                                   misses - lookups[1], self._fast_path))
            obs.on_query_complete(result)
        return result

    def _decoded_lookups(self) -> Tuple[int, int]:
        """The decoded cache's cumulative (hits, misses): their change
        across one ``search()`` is that query's lookups."""
        cache = self._decoded_cache
        return (cache.hits, cache.misses) if cache is not None else (0, 0)

    # ------------------------------------------------------------------
    # Execution paths
    # ------------------------------------------------------------------

    def _execute_union(self, node: QueryNode, topk: TopKQueue,
                       work: WorkCounters, open_cursor: OpenCursor) -> None:
        cursors = [open_cursor(t, SKIP_ET) for t in node.terms()]
        config = self._config
        et = dict(et_block=config.et_block, et_wand=config.et_wand,
                  interval_blocks=config.et_interval_blocks)
        if not self._fast_path:
            run_union(cursors, self._index.scorer, topk, work, **et)
            return
        run_union_columnar(
            cursors, self._index.scorer, topk, work,
            score_cache=self._columnar_scores,
            leader_runs=self._executor == "columnar",
            **et,
        )

    def _execute_and_of_groups(self, node: AndNode, topk: TopKQueue,
                               work: WorkCounters,
                               open_cursor: OpenCursor) -> None:
        """Q2/Q4/Q6 path: AND over terms and OR-of-term groups."""
        groups: List[GroupCursor] = []
        for child in node.children:
            members = [open_cursor(t, SKIP_OVERLAP) for t in child.terms()]
            groups.append(GroupCursor(members, work))
        if self._fast_path:
            run_grouped_intersection_fast(groups, work, self._index.scorer,
                                          topk)
            return
        matches = run_grouped_intersection(groups, work)
        self._score_matches(matches, node.terms(), topk, work)

    def _execute_general(self, node: QueryNode, topk: TopKQueue,
                         work: WorkCounters,
                         open_cursor: OpenCursor) -> None:
        """Fallback: rewrite to a union of intersections and merge.

        Every conjunction runs as a pipelined intersection; the branch
        outputs merge in the pipeline (no spill) before scoring. Term
        scores cover every term witnessed by a matching branch — exact
        for all Table II query shapes.

        Each branch needs its tf maps, so it runs the reference
        ``run_grouped_intersection`` on every executor: no benchmark
        workload reaches this path.
        """
        dnf = push_intersections_down(node)
        branches = (
            list(dnf.children) if isinstance(dnf, OrNode) else [dnf]
        )
        merged: Dict[int, Dict[str, int]] = {}
        for branch in branches:
            groups = [
                GroupCursor(
                    [open_cursor(t, SKIP_OVERLAP) for t in child.terms()],
                    work,
                )
                for child in (
                    branch.children
                    if isinstance(branch, AndNode)
                    else [branch]
                )
            ]
            for doc, tfs in run_grouped_intersection(groups, work):
                merged.setdefault(doc, {}).update(tfs)
        matches = sorted(merged.items())

        # BM25 scores every query term present in a matching document,
        # including terms the matching branch did not touch; probe the
        # remaining lists monotonically to complete the tf maps.
        all_terms = sorted(set(node.terms()))
        probes = {term: open_cursor(term, SKIP_OVERLAP)
                  for term in all_terms}
        for doc, tfs in matches:
            for term in all_terms:
                if term in tfs:
                    continue
                landed = probes[term].advance_to(doc)
                work.merge_ops += 1
                if landed == doc:
                    tfs[term] = probes[term].current_tf()
        self._score_matches(matches, all_terms, topk, work)

    def _score_matches(self, matches: Sequence[Tuple[int, Dict[str, int]]],
                       terms: Sequence[str], topk: TopKQueue,
                       work: WorkCounters) -> None:
        """Scoring + top-k modules for set-operation outputs.

        ``terms`` are the query's terms: every key of a match's tf map.
        """
        # ``BM25Scorer.term_score`` inlined with its exact operation
        # order, idf * (tf * (k1 + 1.0)) / (tf + normalizer), and one
        # idf lookup per term per query.
        scorer = self._index.scorer
        normalizers = scorer._normalizers
        k1_plus_1 = scorer.params.k1 + 1.0
        idfs = {term: self._index.posting_list(term).idf for term in terms}
        entries = topk._entries
        k = topk.k
        for doc, tfs in matches:
            score = 0.0
            normalizer = normalizers[doc]
            for term, tf in tfs.items():
                score += idfs[term] * (tf * k1_plus_1) / (tf + normalizer)
            if len(entries) >= k and score <= entries[0][0]:
                # A full queue rejects the offer: count it, skip the call.
                topk._inserts += 1
            else:
                topk.offer(doc, score)
        work.docs_evaluated += len(matches)
        work.topk_inserts += len(matches)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _check_terms(self, node: QueryNode) -> None:
        missing = [t for t in node.terms() if t not in self._index]
        if missing:
            raise QueryError(f"terms not in index: {missing}")

    @staticmethod
    def _is_term_or_term_union(node: QueryNode) -> bool:
        return isinstance(node, TermNode) or (
            isinstance(node, OrNode)
            and all(isinstance(c, TermNode) for c in node.children)
        )
