"""Okapi BM25 ranking with the paper's indexing-time pre-computation.

The paper (Section II-B) scores a document ``D`` for query ``Q``:

.. math::

    score(D, Q) = \\sum_i IDF(q_i) \\cdot
        \\frac{f(q_i, D) (k_1 + 1)}{f(q_i, D) + k_1 (1 - b + b |D| / avgdl)}

with ``IDF(q) = ln((N - n(q) + 0.5) / (n(q) + 0.5) + 1)``.

The scoring-module optimization (Section IV-C) pre-computes everything
except the term frequency at indexing time: the per-document *length
normalizer* ``k1 * (1 - b + b * |D| / avgdl)`` is stored as 4 bytes of
per-document metadata, so the hardware computes a term score with exactly
one division, one multiplication and one addition:

    ``term_score = idf * (tf * (k1 + 1)) / (tf + normalizer)``

:class:`BM25Scorer` reproduces that split: :attr:`normalizer_array` is
the stored metadata, :meth:`term_score` is the 3-op runtime path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class BM25Parameters:
    """BM25 free parameters.

    The paper uses the customary ranges ``k1 in [1.2, 2.0]`` and
    ``b = 0.75``; we default to the common (k1=1.2, b=0.75) operating
    point used by Lucene.
    """

    k1: float = 1.2
    b: float = 0.75

    def __post_init__(self) -> None:
        if self.k1 < 0:
            raise ConfigurationError(f"k1 must be non-negative, got {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise ConfigurationError(f"b must be in [0, 1], got {self.b}")


class BM25Scorer:
    """BM25 scoring over a fixed document corpus.

    Parameters
    ----------
    doc_lengths:
        Length (token count) of every document, indexed by docID.
    params:
        BM25 free parameters.
    """

    def __init__(self, doc_lengths: Sequence[int],
                 params: "BM25Parameters" = None) -> None:
        if not doc_lengths:
            raise ConfigurationError("corpus must contain at least one document")
        if any(length <= 0 for length in doc_lengths):
            raise ConfigurationError("document lengths must be positive")
        self._params = BM25Parameters() if params is None else params
        self._doc_lengths = list(doc_lengths)
        self._num_docs = len(doc_lengths)
        self._avgdl = sum(doc_lengths) / len(doc_lengths)
        # Per-document metadata: the paper's 4-byte pre-computed
        # normalizer k1 * (1 - b + b * |D| / avgdl).
        k1, b = self._params.k1, self._params.b
        self._normalizers = [
            k1 * (1.0 - b + b * length / self._avgdl)
            for length in self._doc_lengths
        ]
        # Columnar view of the normalizer table, built lazily by
        # :attr:`normalizer_array` (the leader runs' gather source).
        self._normalizer_nd = None

    @property
    def params(self) -> BM25Parameters:
        return self._params

    @property
    def num_docs(self) -> int:
        """Corpus size ``N``."""
        return self._num_docs

    @property
    def id_space(self) -> int:
        """Size of the docID domain the scorer can normalize.

        Equals :attr:`num_docs` for a plain corpus scorer; live-index
        scorers (:class:`repro.live.stats.LiveBM25Scorer`) keep
        normalizer slots for deleted documents, so their id space can
        exceed the live document count.
        """
        return len(self._normalizers)

    @property
    def avgdl(self) -> float:
        """Average document length."""
        return self._avgdl

    def idf(self, document_frequency: int) -> float:
        """Inverse document frequency of a term with the given ``df``."""
        if not 0 <= document_frequency <= self._num_docs:
            raise ConfigurationError(
                f"df {document_frequency} outside [0, {self._num_docs}]"
            )
        n = document_frequency
        return math.log((self._num_docs - n + 0.5) / (n + 0.5) + 1.0)

    @property
    def normalizer_array(self) -> np.ndarray:
        """The normalizer table as a float64 vector (built lazily).

        Scorers are immutable once constructed (live indexes snapshot a
        fresh scorer per version), so the cached array can never go
        stale; a length check guards subclasses that rebuild
        ``_normalizers`` in place.
        """
        cached = getattr(self, "_normalizer_nd", None)
        if cached is None or len(cached) != len(self._normalizers):
            cached = np.asarray(self._normalizers, dtype=np.float64)
            self._normalizer_nd = cached
        return cached

    def term_score(self, idf: float, tf: int, doc_id: int) -> float:
        """Runtime term score: one division, one multiply, one add.

        This is exactly the arithmetic the paper's scoring module performs
        in hardware using the stored normalizer.
        """
        normalizer = self._normalizers[doc_id]
        k1 = self._params.k1
        return idf * (tf * (k1 + 1.0)) / (tf + normalizer)

    def max_term_score(self, document_frequency: int,
                       postings: Iterable,
                       idf: float = None) -> float:
        """Upper-bound term score over ``postings`` (``(docID, tf)`` pairs).

        Used at indexing time to fill the block metadata's "maximum
        term-score" field and the per-list bound used by the WAND union
        module's pre-calculated lookup table. Pass ``idf`` explicitly
        when corpus-global statistics override the local df (sharded
        deployments).
        """
        if idf is None:
            idf = self.idf(document_frequency)
        best = 0.0
        for doc_id, tf in postings:
            score = self.term_score(idf, tf, doc_id)
            if score > best:
                best = score
        return best
