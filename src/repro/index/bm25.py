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
from typing import Sequence

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
        lengths = np.asarray(doc_lengths)
        if not len(lengths):
            raise ConfigurationError("corpus must contain at least one document")
        self._params = BM25Parameters() if params is None else params
        self._num_docs = len(lengths)
        self._set_lengths(lengths, int(lengths.sum()) / len(lengths))

    def _set_lengths(self, lengths: np.ndarray, avgdl: float) -> None:
        """Install the length table and its normalizers.

        The per-document metadata is the paper's 4-byte pre-computed
        normalizer ``k1 * (1 - b + b * |D| / avgdl)``, computed over the
        whole column in the scalar formula's operation order, so every
        value is bit-identical to the per-document Python arithmetic.
        """
        if (lengths <= 0).any():
            raise ConfigurationError("document lengths must be positive")
        self._doc_lengths = lengths
        self._avgdl = avgdl
        k1, b = self._params.k1, self._params.b
        # k1 * (1.0 - b + b * length / avgdl) in place, in that order
        # (IEEE addition and multiplication commute exactly).
        normalizers = b * lengths
        normalizers /= avgdl
        normalizers += 1.0 - b
        normalizers *= k1
        self._normalizers = normalizers.tolist()
        #: The normalizer table as a float64 vector (the leader runs'
        #: gather source).
        self.normalizer_array = normalizers

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

    def term_score(self, idf: float, tf: int, doc_id: int) -> float:
        """Runtime term score: one division, one multiply, one add.

        This is exactly the arithmetic the paper's scoring module performs
        in hardware using the stored normalizer.
        """
        normalizer = self._normalizers[doc_id]
        k1 = self._params.k1
        return idf * (tf * (k1 + 1.0)) / (tf + normalizer)
