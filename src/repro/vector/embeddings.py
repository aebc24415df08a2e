"""Deterministic synthetic embeddings correlated with corpus topics.

The synthetic corpora (:mod:`repro.workloads.corpus`) have no text to
embed, but they do have *structure*: docID locality means nearby
documents are topically related (a crawl ordering clusters pages by
site/day). The embedding model makes that structure explicit:

* the docID space is divided into ``num_topics`` contiguous bands, each
  owning a random unit *topic vector*;
* a document's embedding is its band's topic vector plus seeded
  Gaussian noise, renormalized — documents in the same band are close,
  documents in different bands are near-orthogonal;
* a term's embedding is the normalized mean of its posting documents'
  embeddings — a term whose postings cluster in one docID band (the
  corpus's ``locality`` knob) gets a crisp topical direction, a uniform
  stopword-like term averages out to mush;
* a query embedding is the normalized sum of its known terms' vectors.

Everything is a pure function of ``(spec, index identity)``: the same
corpus spec and embedding seed reproduce the same float32 vectors
bit-for-bit, which is what lets the differential oracle and the recall
floors pin exact numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.errors import ConfigurationError, QueryError


@dataclass(frozen=True)
class EmbeddingSpec:
    """Parameters of the synthetic embedding model."""

    #: Embedding dimensionality (small by real-model standards; the
    #: bandwidth accounting scales linearly, so nothing qualitative
    #: depends on it).
    dim: int = 32
    #: Contiguous docID bands, each with its own topic direction.
    num_topics: int = 8
    #: Gaussian noise mixed into each document vector before
    #: renormalization; 0 collapses every band to a single point.
    noise: float = 0.35
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise ConfigurationError("embedding dim must be >= 2")
        if self.num_topics < 1:
            raise ConfigurationError("need at least one topic")
        if self.noise < 0:
            raise ConfigurationError("noise must be >= 0")


def _normalize_rows(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return (matrix / norms).astype(np.float32)


class CorpusEmbeddings:
    """Unit-norm float32 embeddings for one corpus: docs, terms, queries."""

    def __init__(self, spec: EmbeddingSpec, doc_vectors: np.ndarray,
                 doc_topics: np.ndarray,
                 term_vectors: Dict[str, np.ndarray]) -> None:
        self.spec = spec
        #: ``[num_docs, dim]`` float32, rows unit-norm; row i = doc i.
        self.doc_vectors = doc_vectors
        #: Topic band of each document (``[num_docs]`` int).
        self.doc_topics = doc_topics
        self.term_vectors = term_vectors

    @property
    def num_docs(self) -> int:
        return int(self.doc_vectors.shape[0])

    @property
    def dim(self) -> int:
        return int(self.doc_vectors.shape[1])

    def query_vector(self, terms: Iterable[str]) -> np.ndarray:
        """Normalized sum of the known terms' vectors.

        Unknown terms are skipped, mirroring lexical retrieval (a term
        missing from the index matches nothing); a query with *no*
        known terms has no direction and raises.
        """
        acc = np.zeros(self.dim, dtype=np.float64)
        known = 0
        for term in terms:
            vec = self.term_vectors.get(term)
            if vec is not None:
                acc += vec
                known += 1
        if not known:
            raise QueryError("query has no terms known to the embedding model")
        norm = float(np.linalg.norm(acc))
        if norm == 0:
            # Opposed term vectors cancelled exactly; keep determinism.
            acc[0] = 1.0
            norm = 1.0
        return (acc / norm).astype(np.float32)

    def exact_topk(self, query: np.ndarray, k: int) -> List[int]:
        """Ground-truth docIDs: cosine top-k over the *raw* float32
        embeddings (the recall@k reference, independent of any codec)."""
        scores = self.doc_vectors @ query.astype(np.float32)
        order = np.lexsort((np.arange(len(scores)), -scores))
        return [int(d) for d in order[:k]]


def embed_index(index, spec: Optional[EmbeddingSpec] = None) -> CorpusEmbeddings:
    """Build embeddings for any :class:`~repro.index.index.InvertedIndex`.

    Document vectors depend only on ``(num_docs, spec)``; term vectors
    are derived from the index's posting lists (decoded once, on the
    host — an offline build step, not query traffic).
    """
    spec = EmbeddingSpec() if spec is None else spec
    num_docs = index.stats.num_docs
    if num_docs < 1:
        raise ConfigurationError("cannot embed an empty index")
    rng = np.random.default_rng(spec.seed)
    topics = _normalize_rows(
        rng.standard_normal((spec.num_topics, spec.dim))
    )
    doc_topics = (
        np.arange(num_docs, dtype=np.int64) * spec.num_topics
    ) // num_docs
    noise = rng.standard_normal((num_docs, spec.dim)) * spec.noise
    doc_vectors = _normalize_rows(topics[doc_topics] + noise)

    term_vectors: Dict[str, np.ndarray] = {}
    for term in index.terms:
        doc_ids = [p.doc_id for p in index.posting_list(term).decode_all()]
        mean = doc_vectors[np.asarray(doc_ids, dtype=np.int64)].mean(axis=0)
        norm = float(np.linalg.norm(mean))
        if norm == 0:
            mean = topics[0].astype(np.float64)
            norm = 1.0
        term_vectors[term] = (mean / norm).astype(np.float32)
    return CorpusEmbeddings(spec, doc_vectors, doc_topics, term_vectors)


def embed_corpus(corpus) -> CorpusEmbeddings:
    """Embeddings for a :class:`~repro.workloads.corpus.SyntheticCorpus`.

    The embedding seed is derived from the corpus seed so "same corpus
    spec" implies "same embeddings" — the reproducibility contract of
    the vector lane.
    """
    return embed_index(corpus.index,
                       EmbeddingSpec(seed=corpus.spec.seed * 6151 + 3))
