"""Synthetic web corpora shaped after the paper's datasets.

The paper evaluates on ClueWeb12 and CC-News. Both are far beyond
laptop scale, so we generate synthetic corpora that preserve the
properties every result depends on:

* **Zipfian term popularity** — document frequency falls as a power law
  of term rank, giving the TREC-like mix of huge and tiny posting lists;
* **skewed term frequencies** — geometric tf per posting, so per-block
  maximum term-scores vary and early termination has real skip
  opportunities;
* **docID locality** — a fraction of each term's postings is drawn from
  clustered docID ranges (topical locality in a crawl ordering), which
  is what makes block overlap checks and per-list scheme selection
  meaningful;
* **power-law document lengths** — the BM25 length normalizer varies.

Presets ``clueweb12-like`` (long web pages, flatter popularity) and
``ccnews-like`` (shorter news articles, steeper popularity, more
locality) mirror the relative character of the two datasets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.index.builder import IndexBuilder
from repro.index.index import InvertedIndex


@dataclass(frozen=True)
class CorpusSpec:
    """Parameters of a synthetic corpus."""

    name: str
    num_docs: int = 50_000
    num_terms: int = 400
    #: Document frequency of the most popular term, as a corpus fraction.
    max_df_fraction: float = 0.25
    #: Zipf exponent of the term-popularity curve.
    popularity_exponent: float = 0.9
    #: Geometric tf parameter (smaller -> heavier tf tails).
    tf_p: float = 0.5
    #: Fraction of postings drawn from clustered docID ranges.
    locality: float = 0.3
    #: Mean document length in tokens (lognormal).
    mean_doc_length: float = 400.0
    seed: int = 7

    def __post_init__(self) -> None:
        if self.num_docs <= 0 or self.num_terms <= 0:
            raise ConfigurationError("corpus must have docs and terms")
        if not 0 < self.max_df_fraction <= 1:
            raise ConfigurationError("max_df_fraction must be in (0, 1]")
        if not 0 < self.tf_p <= 1:
            raise ConfigurationError("tf_p must be in (0, 1]")
        if not 0 <= self.locality <= 1:
            raise ConfigurationError("locality must be in [0, 1]")


#: Preset shaped after ClueWeb12: long web documents, flat popularity.
CLUEWEB12_LIKE = CorpusSpec(
    name="clueweb12-like",
    num_docs=60_000,
    num_terms=480,
    max_df_fraction=0.30,
    popularity_exponent=0.85,
    tf_p=0.45,
    locality=0.25,
    mean_doc_length=900.0,
    seed=12,
)

#: Preset shaped after CC-News: shorter articles, steeper popularity,
#: stronger topical docID locality (news crawls cluster by day/outlet).
CCNEWS_LIKE = CorpusSpec(
    name="ccnews-like",
    num_docs=50_000,
    num_terms=420,
    max_df_fraction=0.25,
    popularity_exponent=1.0,
    tf_p=0.55,
    locality=0.45,
    mean_doc_length=420.0,
    seed=21,
)

_PRESETS: Dict[str, CorpusSpec] = {
    "clueweb12-like": CLUEWEB12_LIKE,
    "ccnews-like": CCNEWS_LIKE,
}


class SyntheticCorpus:
    """A generated corpus: term statistics plus its built inverted index."""

    def __init__(self, spec: CorpusSpec) -> None:
        self.spec = spec
        self._rng = np.random.default_rng(spec.seed)
        self.doc_lengths = self._draw_doc_lengths()
        self.term_dfs = self._draw_term_dfs()
        self.index = self._build_index()

    # ------------------------------------------------------------------

    @property
    def terms(self) -> List[str]:
        """Terms ordered by descending popularity (term0 most common)."""
        return [f"term{i:04d}" for i in range(self.spec.num_terms)]

    def terms_by_df(self) -> List[str]:
        """Terms sorted by descending document frequency."""
        return sorted(self.term_dfs, key=self.term_dfs.get, reverse=True)

    # ------------------------------------------------------------------

    def _draw_doc_lengths(self) -> List[int]:
        spec = self.spec
        sigma = 0.6
        mu = np.log(spec.mean_doc_length) - sigma ** 2 / 2
        lengths = self._rng.lognormal(mu, sigma, size=spec.num_docs)
        # Truncated toward zero (the draws are positive), at least 8.
        return np.maximum(lengths.astype(np.int64), 8).tolist()

    def _draw_term_dfs(self) -> Dict[str, int]:
        spec = self.spec
        top_df = max(2, int(spec.num_docs * spec.max_df_fraction))
        dfs: Dict[str, int] = {}
        for rank, term in enumerate(self.terms, start=1):
            df = max(1, int(top_df / rank ** spec.popularity_exponent))
            dfs[term] = min(df, spec.num_docs)
        return dfs

    def _draw_doc_ids(self, df: int, term_seed: int):
        """DocIDs for one term: a uniform part plus clustered runs.

        Returns ``(doc_ids, clustered_mask)``: the mask marks postings
        that came from topical clusters, where the term also occurs more
        often *within* each document (higher tf). This topical locality
        is what gives real per-block maximum term-scores their variance —
        the raw material of block-level early termination.
        """
        spec = self.spec
        rng = np.random.default_rng(term_seed)
        n_clustered = int(df * spec.locality)
        n_uniform = df - n_clustered

        parts = []
        if n_uniform:
            parts.append(rng.integers(0, spec.num_docs, size=n_uniform * 2))
        clustered_ids = []
        if n_clustered:
            # A few dense runs: consecutive docIDs around random anchors.
            remaining = n_clustered
            while remaining > 0:
                run = int(min(remaining, rng.integers(8, 64)))
                anchor = int(rng.integers(0, max(1, spec.num_docs - run)))
                clustered_ids.append(np.arange(anchor, anchor + run))
                remaining -= run
            parts.extend(clustered_ids)
        ids = np.unique(np.concatenate(parts))
        if len(ids) > df:
            ids = np.sort(rng.choice(ids, size=df, replace=False))
        if clustered_ids:
            cluster_set = np.unique(np.concatenate(clustered_ids))
            mask = np.isin(ids, cluster_set)
        else:
            mask = np.zeros(len(ids), dtype=bool)
        return ids, mask

    def _build_index(self) -> InvertedIndex:
        spec = self.spec
        builder = IndexBuilder()
        builder.declare_documents(self.doc_lengths)
        for rank, term in enumerate(self.terms):
            df = self.term_dfs[term]
            doc_ids, clustered = self._draw_doc_ids(df, spec.seed * 7919 + rank)
            self.term_dfs[term] = len(doc_ids)
            # Per-term tf skew: popular terms repeat more inside a doc;
            # topically clustered postings repeat much more (the term is
            # central to those documents).
            p = min(1.0, max(0.05, spec.tf_p + 0.3 * (rank / spec.num_terms)))
            tf_rng = np.random.default_rng(spec.seed * 104729 + rank)
            tfs = tf_rng.geometric(p, size=len(doc_ids))
            boosted = tf_rng.geometric(max(0.05, p / 3.0), size=len(doc_ids))
            tfs = np.where(clustered, np.maximum(tfs, boosted), tfs)
            tfs = np.minimum(tfs, 64)
            builder.add_postings(term, doc_ids.tolist(), tfs.tolist())
        return builder.build()


def make_corpus(preset: str, scale: float = 1.0,
                seed: Optional[int] = None) -> SyntheticCorpus:
    """Build a preset corpus, optionally re-scaled and re-seeded.

    ``scale`` multiplies document and term counts (0.1 gives a fast
    test-sized corpus; 1.0 the default benchmark size). Every list gets
    the builder's per-list codec choice.
    """
    try:
        base = _PRESETS[preset]
    except KeyError:
        known = ", ".join(sorted(_PRESETS))
        raise ConfigurationError(
            f"unknown corpus preset {preset!r}; known: {known}"
        ) from None
    if scale <= 0:
        raise ConfigurationError("scale must be positive")
    from dataclasses import replace

    spec = replace(
        base,
        num_docs=max(64, int(base.num_docs * scale)),
        num_terms=max(16, int(base.num_terms * scale)),
        seed=base.seed if seed is None else seed,
    )
    return SyntheticCorpus(spec)


def synthetic_documents(num_docs: int = 1000, vocab_size: int = 40,
                        seed: int = 0) -> List[List[str]]:
    """Seeded token-list documents with exponential term popularity.

    The *document-level* counterpart of :class:`SyntheticCorpus` (which
    synthesizes posting lists directly and therefore cannot be
    re-sharded): cluster workloads need actual documents so
    :func:`repro.cluster.sharding.shard_documents` can split them into
    docID intervals with corpus-global statistics. Vocabulary is
    ``t0 ... t{vocab_size-1}`` with ``t0`` most popular.
    """
    if num_docs < 1 or vocab_size < 8:
        raise ConfigurationError(
            "need at least 1 document and 8 vocabulary terms"
        )
    import random as _random

    rng = _random.Random(seed)
    words = [f"t{i}" for i in range(vocab_size)]
    return [
        [words[min(vocab_size - 1, int(rng.expovariate(0.12)))]
         for _ in range(rng.randrange(5, 40))]
        for _ in range(num_docs)
    ]
