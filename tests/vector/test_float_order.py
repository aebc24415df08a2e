"""Pinned numpy float order of the vector lane's two batched kernels.

The harness oracle rescores candidates one at a time with
``float(doc_vectors[i] @ q)`` and compares with ``==``, so the batched
row-dot :class:`VectorReranker` uses must round exactly as that per-row
dot does — on every numpy / BLAS this suite runs under. It is the
stacked-matmul form ``(rows[:, None, :] @ q[:, None])``, which runs one
dot kernel per row; ``rows @ q`` is a GEMV with another summation order
(about half of 20 000 gathered rows differ in the last bit on numpy
2.4 / OpenBLAS) and must not replace it. The form needs nothing newer
than the ``numpy`` the package already depends on (``np.vecdot``, also
exact, would need ``numpy >= 2.0``).

The ANN lane's ``_top_k`` is one ``lexsort``; it must order exactly as
the ``sorted(key=(-score, doc_id))`` over objects it replaced.
"""

import numpy as np
import pytest

from repro.core.result import ScoredDocument
from repro.vector import VectorEngine, VectorReranker

from .test_hybrid import _first_stage, _no_features


class _Embeddings:
    """The three things a :class:`VectorReranker` reads."""

    def __init__(self, dim, num_docs, seed):
        rng = np.random.default_rng(seed)
        vectors = rng.standard_normal((num_docs, dim)).astype(np.float32)
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        query = rng.standard_normal(dim).astype(np.float32)
        self.dim = dim
        self.doc_vectors = vectors
        self.query = query / np.linalg.norm(query)

    def query_vector(self, terms):
        return self.query


class _Query:
    def terms(self):
        return ["anything"]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("rows", [1, 100])
@pytest.mark.parametrize("dim", [32, 27])
def test_batched_row_dot_equals_the_per_row_dot(dim, rows, seed):
    """Unsorted ids, with repeats; a dim that is not a multiple of the
    SIMD width (27) takes the kernels' tail loop."""
    embeddings = _Embeddings(dim, num_docs=400, seed=seed)
    rng = np.random.default_rng(100 + seed)
    ids = rng.integers(0, 400, size=rows).tolist()
    ids[rows // 2:] = ids[:rows - rows // 2]  # repeats (100 rows)
    first = _first_stage(_Query(), [(i, 1.0) for i in ids])
    reranker = VectorReranker(embeddings)
    scores, _ = reranker.rescore(first, _no_features)
    assert scores == [
        float(embeddings.doc_vectors[i] @ embeddings.query) for i in ids
    ]


@pytest.mark.parametrize("k", [1, 7, 40, 500])
def test_top_k_lexsort_equals_the_object_sort(k):
    """Duplicated scores (ties break on doc_id) across several
    clusters' columns, ids unsorted within and across columns."""
    rng = np.random.default_rng(9)
    doc_ids = rng.permutation(240).astype(np.int64)
    # Few distinct values: most scores are shared by several docs.
    scores = rng.choice(
        np.array([-0.5, 0.0, 0.125, 0.3, 0.30000001, 0.9],
                 dtype=np.float32), size=240)
    columns = [(doc_ids[lo:lo + 60], scores[lo:lo + 60])
               for lo in range(0, 240, 60)]
    expected = sorted(
        (ScoredDocument(int(d), float(s)) for d, s in zip(doc_ids, scores)),
        key=lambda hit: (-hit.score, hit.doc_id),
    )[:k]
    assert VectorEngine._top_k(columns, k) == expected


def test_top_k_of_nothing():
    assert VectorEngine._top_k([], 5) == []
