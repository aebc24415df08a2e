"""Second-stage re-ranking: the software stage BOSS hands off to.

The paper (Section II-B): modern engines use multi-stage ranking — a
fast first stage retrieves top-k candidates, and "BOSS leaves this
second, re-ranking stage to software, while covering all the prior
stages up to the first top-k candidate retrieval stage."

This module provides that software stage:

* :class:`Reranker` — the interface: rescore a first-stage result's
  candidates in one batch (:meth:`Reranker.rescore`), by default from
  each candidate's first-stage evidence (:meth:`Reranker.score`);
* :class:`LinearReranker` — a feature-linear model over the evidence a
  first-stage result actually carries (first-stage score, matched-term
  count, document length prior), standing in for the neural models the
  paper cites [27], [47], [49];
* :class:`TwoStageSearch` — the full pipeline: a first-stage engine
  (BOSS/IIU/Lucene) retrieves k1 candidates, the re-ranker rescores
  them on the host, and the top k2 are returned. Host CPU time is
  modeled per candidate so the pipeline composes with the timing model.

Candidates stay columns until the k that are returned: a reranker
returns one score per hit, the pipeline sorts ``(-score, doc_id)``
tuples and only the final k become ``ScoredDocument`` objects
(:func:`repro.core.result.best_hits`). A
reranker holds no per-query state, so one instance serves concurrent
queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.query import QueryNode
from repro.core.result import ScoredDocument, SearchResult, best_hits
from repro.errors import ConfigurationError
from repro.index.index import InvertedIndex
from repro.observability.observer import NULL_OBSERVER, Observer
from repro.scm.traffic import TrafficCounter


@dataclass(frozen=True)
class CandidateFeatures:
    """Evidence available to the second stage for one candidate."""

    doc_id: int
    first_stage_score: float
    #: Query terms whose posting lists contain the document.
    matched_terms: int
    #: Total query terms.
    query_terms: int
    #: Document length in tokens.
    doc_length: int


class Reranker:
    """Interface for second-stage scoring models."""

    #: Modeled host CPU cost per rescored candidate (seconds). Neural
    #: re-rankers are orders slower; this default is a light model.
    cost_per_candidate: float = 2e-6

    def score(self, features: CandidateFeatures) -> float:
        raise NotImplementedError

    def rescore(self, first: SearchResult,
                features: Callable[[SearchResult], List[CandidateFeatures]],
                ) -> Tuple[Sequence[float], TrafficCounter]:
        """Second-stage scores for ``first.hits``, in hit order, plus
        the device traffic those scores cost.

        ``features(first)`` builds every candidate's
        :class:`CandidateFeatures` — membership probes over the query's
        posting lists — and runs only when called: a model that reads
        no feature (:class:`repro.vector.hybrid.VectorReranker`) never
        pays for them. The default is a feature model: one
        :meth:`score` per candidate, no device traffic.
        """
        return [self.score(f) for f in features(first)], TrafficCounter()


class LinearReranker(Reranker):
    """Weighted sum over the candidate features.

    The weights keep the first-stage order as the dominant signal
    and break ties toward documents matching more query terms and
    toward mid-length documents — the standard hand-tuned baseline a
    learned model would replace.
    """

    WEIGHT_FIRST_STAGE = 1.0
    WEIGHT_COVERAGE = 0.5
    WEIGHT_LENGTH_PRIOR = 0.1
    #: Document length at which the prior peaks.
    PREFERRED_LENGTH = 300.0

    def score(self, features: CandidateFeatures) -> float:
        coverage = (
            features.matched_terms / features.query_terms
            if features.query_terms else 0.0
        )
        length_ratio = features.doc_length / self.PREFERRED_LENGTH
        # Smooth unimodal prior: 1 at the preferred length, falling off
        # for very short or very long documents.
        length_prior = 2.0 * length_ratio / (1.0 + length_ratio ** 2)
        return (
            self.WEIGHT_FIRST_STAGE * features.first_stage_score
            + self.WEIGHT_COVERAGE * coverage
            + self.WEIGHT_LENGTH_PRIOR * length_prior
        )


@dataclass
class RerankedResult:
    """Outcome of the two-stage pipeline."""

    query: QueryNode
    hits: List[ScoredDocument]
    first_stage: SearchResult
    #: Modeled host seconds spent in the second stage.
    rerank_seconds: float = 0.0
    #: Candidates rescored.
    candidates: int = 0
    #: Device traffic the second stage's scores cost (a feature model:
    #: none; a vector model: one stored vector per candidate).
    traffic: TrafficCounter = field(default_factory=TrafficCounter)

    def publish_metrics(self, registry) -> None:
        registry.counter(
            "rerank.queries", "queries through the software second stage"
        ).inc()
        registry.counter(
            "rerank.candidates", "candidates rescored by the second stage"
        ).inc(self.candidates)
        registry.counter(
            "rerank.seconds", "modeled host seconds in the second stage"
        ).inc(self.rerank_seconds)
        # The stage the per-query traces were blind to: surface it in
        # the same pipeline ledger the device stages publish into.
        registry.counter(
            "pipeline.stage_seconds", "summed modeled stage time"
        ).inc(self.rerank_seconds, stage="rerank", engine="host")


class TwoStageSearch:
    """First-stage engine + software re-ranker, composed.

    Parameters
    ----------
    engine:
        Any first-stage engine (``search(query, k)``): a monolithic
        accelerator (any executor) exposing ``index``, or a cluster
        root exposing its leaf ``engines`` — shards carry corpus-global
        docIDs and document statistics, so leaf indexes resolve any
        candidate's evidence.
    reranker:
        The second-stage model.
    first_stage_k:
        Candidates retrieved by the first stage (the paper's k, default
        1000); the final ``k`` of :meth:`search` selects from these.
    observer:
        Observability hook; receives each query's
        :class:`RerankedResult` (the stage's ``rerank.*`` metrics and
        trace visibility).
    """

    def __init__(self, engine, reranker: Optional[Reranker] = None,
                 first_stage_k: int = 1000,
                 observer: Observer = NULL_OBSERVER) -> None:
        if first_stage_k <= 0:
            raise ConfigurationError("first_stage_k must be positive")
        self._engine = engine
        self._reranker = reranker if reranker is not None else LinearReranker()
        self._first_stage_k = first_stage_k
        self._observer = observer

    @property
    def index(self) -> InvertedIndex:
        return self._engine.index

    def search(self, query: Union[str, QueryNode],
               k: int = 10) -> RerankedResult:
        """Retrieve ``first_stage_k`` candidates, rescore, return top ``k``."""
        if k <= 0:
            raise ConfigurationError("k must be positive")
        first = self._engine.search(query, k=self._first_stage_k)
        scores, traffic = self._reranker.rescore(first, self._features_for)
        candidates = len(first.hits)
        result = RerankedResult(
            query=first.query,
            hits=best_hits(
                ((hit.doc_id, score)
                 for hit, score in zip(first.hits, scores)), k,
            ),
            first_stage=first,
            rerank_seconds=candidates * self._reranker.cost_per_candidate,
            candidates=candidates,
            traffic=traffic,
        )
        self._observer.emit(result)
        return result

    def _index_views(self) -> List[Tuple[InvertedIndex, object]]:
        """The index (or leaf shard indexes) candidate evidence lives
        in, each with the decoded-block cache of the engine owning it.

        A cluster root has no single ``index``; its leaves do, and every
        shard is built with the corpus-global document table
        (:func:`repro.cluster.sharding.shard_documents`), so any leaf
        scorer can resolve any docID's length and each docID's postings
        live in exactly one leaf. The cache is ``None`` for an engine
        that keeps none (the reference executor, the baselines).
        """
        index = getattr(self._engine, "index", None)
        if index is not None:
            engines = [self._engine]
        else:
            engines = getattr(self._engine, "engines", None)
        if not engines:
            raise ConfigurationError(
                "first-stage engine exposes neither 'index' nor 'engines'"
            )
        return [
            (engine.index, getattr(engine, "decoded_cache", None))
            for engine in engines
        ]

    def _features_for(self,
                      first: SearchResult) -> List[CandidateFeatures]:
        from repro.core.cursor import ListCursor
        from repro.sim.metrics import WorkCounters

        views = self._index_views()
        terms = list(dict.fromkeys(first.query.terms()))
        # Membership probes over the candidates, per term, monotone in
        # docID (candidates sorted): one forward cursor pass per (term,
        # shard) instead of decoding whole posting lists — an in-block
        # binary seek inside a decoded block, metadata-guided skips
        # between blocks, so only the blocks candidates land in are
        # fetched, and those are mostly blocks the first stage decoded a
        # moment ago, so the probes read the owning engine's decoded
        # cache. Throwaway counters: these are host-side probes, not
        # device traffic.
        candidate_ids = sorted(hit.doc_id for hit in first.hits)
        matched: Dict[int, int] = {doc: 0 for doc in candidate_ids}
        for term in terms:
            for view, decoded_cache in views:
                if term not in view:
                    continue
                cursor = ListCursor(view.posting_list(term),
                                    WorkCounters(), TrafficCounter(),
                                    decoded_cache=decoded_cache)
                for doc in candidate_ids:
                    landed = cursor.advance_to(doc)
                    if landed is None:
                        break
                    if landed == doc:
                        matched[doc] += 1
        scorer = views[0][0].scorer
        return [
            CandidateFeatures(
                doc_id=hit.doc_id,
                first_stage_score=hit.score,
                matched_terms=matched[hit.doc_id],
                query_terms=len(terms),
                doc_length=int(round(
                    _doc_length_from_normalizer(
                        scorer.length_normalizer(hit.doc_id),
                        scorer,
                    )
                )),
            )
            for hit in first.hits
        ]


def _doc_length_from_normalizer(normalizer: float, scorer) -> float:
    """Invert the stored BM25 normalizer back to a document length.

    The per-document metadata BOSS stores is
    ``k1 * (1 - b + b * |D| / avgdl)``; the second stage recovers |D|
    from it instead of shipping a second per-document table.
    """
    params = scorer.params
    if params.b == 0:
        return scorer.avgdl
    return (
        (normalizer / params.k1 - (1.0 - params.b))
        * scorer.avgdl / params.b
    )
