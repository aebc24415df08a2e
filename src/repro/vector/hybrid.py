"""Hybrid retrieval: lexical candidates + vector evidence, two ways.

**Rerank mode** is the paper's own division of labor taken one step
further: BOSS produces the first-stage BM25 top-k1 and a software
second stage rescores it — here with :func:`vector_rescore`, cosine
similarity between each candidate's stored embedding and the query
embedding. It is the repo's only second stage. Candidate doc vectors
are random single-vector loads (``LD Score / random``), the access
shape the IVF engine's sequential cluster scans exist to avoid — which
is exactly the rerank-vs-scan bandwidth trade the hybrid lane is built
to expose.

**RRF mode** runs both retrievers independently and fuses their
*rankings* with Reciprocal Rank Fusion::

    score(d) = sum over rankings r of  1 / (C + rank_r(d))

(C = 60 by convention; rank is 1-based; ties break on doc_id). RRF is
scale-free — it never compares a BM25 score to a cosine — which is why
it is the standard baseline for hybrid fusion.

:class:`HybridServingTarget` puts either mode behind the serving
layer's :class:`~repro.serving.target.ServingTarget` protocol, so
hybrid traffic rides the existing admission/SLO timeline unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.result import ScoredDocument, SearchResult, best_hits
from repro.errors import ConfigurationError, QueryError
from repro.observability.observer import current_observer
from repro.observability.registry import LATENCY_BUCKETS_US
from repro.scm.traffic import AccessPattern
from repro.vector.embeddings import CorpusEmbeddings
from repro.vector.engine import VectorEngine, VectorSearchResult

HYBRID_MODES = ("rerank", "rrf")

#: Conventional RRF dampening constant.
RRF_C = 60.0

#: Modeled host seconds to rescore one candidate by vector cosine.
RERANK_SECONDS_PER_CANDIDATE = 5e-6


def vector_rescore(embeddings: CorpusEmbeddings,
                   first: SearchResult) -> Tuple[List[float], int]:
    """Cosine(query embedding, doc embedding) for ``first.hits``, in hit
    order, plus the bytes of stored doc vectors those cosines load.

    Each candidate loads one stored doc vector from the pool —
    ``dim * 4`` bytes of ``LD Score / random`` traffic. Nothing is kept
    between calls, so concurrent queries share ``embeddings`` safely.
    """
    hits = first.hits
    try:
        query_vec = embeddings.query_vector(first.query.terms())
    except QueryError:
        # No query term is known to the embedding model: degrade to
        # the first-stage order rather than failing the query.
        return [hit.score for hit in hits], 0
    count = len(hits)
    ids = np.fromiter((hit.doc_id for hit in hits), dtype=np.intp,
                      count=count)
    # One gather, one batched row-dot. The stacked (1 x dim) @
    # (dim x 1) matmul runs the same dot kernel per row as
    # ``doc_vectors[i] @ query_vec`` and is bit-identical to it;
    # ``rows @ query_vec`` (a GEMV) is not
    # (tests/vector/test_float_order.py).
    rows = embeddings.doc_vectors[ids]
    cosines = np.matmul(rows[:, None, :], query_vec[:, None])[:, 0, 0]
    return cosines.tolist(), embeddings.dim * 4 * count


def rrf_fuse(rankings: Sequence[Sequence[int]],
             k: int) -> List[ScoredDocument]:
    """Reciprocal Rank Fusion over docID rankings (deterministic)."""
    if k <= 0:
        raise ConfigurationError("k must be positive")
    scores: dict = {}
    for ranking in rankings:
        for rank, doc_id in enumerate(ranking, start=1):
            scores[doc_id] = scores.get(doc_id, 0.0) + 1.0 / (RRF_C + rank)
    return best_hits(scores.items(), k)


@dataclass
class HybridResult:
    """Outcome of one hybrid query, with both retrievers' ledgers."""

    expression: str
    mode: str
    hits: List[ScoredDocument]
    #: First-stage / lexical-side result (engine ``SearchResult``).
    lexical: object
    #: The ANN side (RRF mode only; ``None`` in rerank mode, where the
    #: vector evidence arrives as per-candidate loads instead).
    vector: Optional[VectorSearchResult]
    #: Modeled host seconds in the second stage (rerank mode).
    rerank_seconds: float = 0.0
    #: Candidates rescored (rerank mode) or fused (RRF mode).
    candidates: int = 0
    #: End-to-end modeled seconds: lexical device time + vector device
    #: time + host rerank time.
    modeled_seconds: float = 0.0

    def publish_metrics(self, registry) -> None:
        registry.counter(
            "hybrid.queries", "hybrid queries, by fusion mode"
        ).inc(mode=self.mode)
        registry.counter(
            "hybrid.candidates", "candidates rescored or fused"
        ).inc(self.candidates, mode=self.mode)
        registry.histogram(
            "hybrid.latency_us", LATENCY_BUCKETS_US,
            "modeled end-to-end hybrid latency (us)",
        ).observe(self.modeled_seconds * 1e6, mode=self.mode)
        if self.mode == "rerank":
            # The host stage the per-query traces are blind to, in the
            # same pipeline ledger the device stages publish into.
            registry.counter(
                "pipeline.stage_seconds", "summed modeled stage time"
            ).inc(self.rerank_seconds, stage="rerank", engine="host")


class HybridSearch:
    """Lexical + vector retrieval, composed either way.

    Parameters
    ----------
    engine:
        The lexical first stage (anything with ``search(query, k)``).
    vector_engine:
        The ANN lane (:class:`~repro.vector.engine.VectorEngine`).
    mode:
        ``"rerank"`` (BM25 top-k1 -> vector rescoring) or ``"rrf"``
        (independent retrieval, rank fusion).
    first_stage_k:
        Candidate depth: first-stage k in rerank mode, per-retriever
        depth in RRF mode. The ANN lane probes its own ``nprobe``.
    """

    def __init__(self, engine, vector_engine: VectorEngine,
                 mode: str = "rerank", first_stage_k: int = 100) -> None:
        if mode not in HYBRID_MODES:
            raise ConfigurationError(
                f"unknown hybrid mode {mode!r}; known: "
                f"{', '.join(HYBRID_MODES)}"
            )
        if first_stage_k <= 0:
            raise ConfigurationError("first_stage_k must be positive")
        self.mode = mode
        self._engine = engine
        self._vector_engine = vector_engine
        self._first_stage_k = first_stage_k
        self._device = vector_engine.device

    def search(self, query, k: int = 10) -> HybridResult:
        if k <= 0:
            raise ConfigurationError("k must be positive")
        if self.mode == "rerank":
            result = self._rerank_search(query, k)
        else:
            result = self._rrf_search(query, k)
        current_observer().emit(result)
        return result

    def _rerank_search(self, query, k: int) -> HybridResult:
        lexical = self._engine.search(query, k=self._first_stage_k)
        scores, load_bytes = vector_rescore(self._vector_engine.embeddings,
                                            lexical)
        candidates = len(lexical.hits)
        rerank_seconds = candidates * RERANK_SECONDS_PER_CANDIDATE
        modeled = (
            self._device.service_time(lexical.traffic)
            + rerank_seconds
            + self._device.read_time(load_bytes, AccessPattern.RANDOM)
        )
        return HybridResult(
            expression=str(lexical.query),
            mode="rerank",
            hits=best_hits(
                ((hit.doc_id, score)
                 for hit, score in zip(lexical.hits, scores)), k,
            ),
            lexical=lexical,
            vector=None,
            rerank_seconds=rerank_seconds,
            candidates=candidates,
            modeled_seconds=modeled,
        )

    def _rrf_search(self, query, k: int) -> HybridResult:
        lexical = self._engine.search(query, k=self._first_stage_k)
        vector = self._vector_engine.search(query, k=self._first_stage_k)
        hits = rrf_fuse(
            [
                [hit.doc_id for hit in lexical.hits],
                [hit.doc_id for hit in vector.hits],
            ],
            k,
        )
        fused = len(
            {hit.doc_id for hit in lexical.hits}
            | {hit.doc_id for hit in vector.hits}
        )
        modeled = (
            self._device.service_time(lexical.traffic)
            + vector.modeled_seconds
        )
        return HybridResult(
            expression=str(lexical.query),
            mode="rrf",
            hits=hits,
            lexical=lexical,
            vector=vector,
            candidates=fused,
            modeled_seconds=modeled,
        )


class HybridServingTarget:
    """A :class:`HybridSearch` behind the
    :class:`~repro.serving.target.ServingTarget` protocol.

    Service time is the result's fully modeled seconds, so hybrid runs
    ride the virtual timeline; the lane is read-only and keeps no
    timeline state, hence no clock and no updates.
    """

    clock = None

    def __init__(self, hybrid: HybridSearch) -> None:
        self._hybrid = hybrid

    def search(self, expression, k: Optional[int] = None) -> HybridResult:
        if k is None:
            return self._hybrid.search(expression)
        return self._hybrid.search(expression, k=k)

    def apply_update(self, request):
        raise ConfigurationError(
            "the hybrid serving target is read-only; it cannot apply "
            f"{request.update[0]!r} updates"
        )

    def service_time(self, request, result) -> float:
        return result.modeled_seconds
