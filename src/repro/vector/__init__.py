"""Vector retrieval lane: ANN search on the SCM device model.

BOSS covers every query stage "up to the first top-k candidate
retrieval stage" and leaves re-ranking to software. This package opens
the second retrieval workload that second-tier memory papers argue for
(arXiv 2405.03267, NCAM): IVF-style clustered ANN search whose data
layout lives on the same :mod:`repro.scm` device model, metered through
the same bandwidth-class accounting — sequential cluster scans ride the
25.6 GB/s lane, the per-``nprobe`` cluster hops pay the 6.6 GB/s random
rate.

* :mod:`repro.vector.embeddings` — deterministic synthetic embeddings
  correlated with the corpus topic structure;
* :mod:`repro.vector.ivf` — seeded spherical k-means, fp32/int8 vector
  codecs, packed cluster layouts, ``.bossv`` serialization;
* :mod:`repro.vector.engine` — :class:`VectorEngine` with per-query
  traffic conservation and a brute-force differential oracle;
* :mod:`repro.vector.hybrid` — BM25 -> vector rerank and RRF fusion,
  plus the serving-layer target.
"""

from repro.vector.embeddings import (
    CorpusEmbeddings,
    embed_corpus,
    embed_index,
)
from repro.vector.engine import VectorEngine, VectorSearchResult
from repro.vector.hybrid import (
    HybridResult,
    HybridSearch,
    HybridServingTarget,
    rrf_fuse,
)
from repro.vector.ivf import (
    IVFIndex,
    build_ivf,
    load_ivf,
    save_ivf,
)

__all__ = [
    "CorpusEmbeddings",
    "HybridResult",
    "HybridSearch",
    "HybridServingTarget",
    "IVFIndex",
    "VectorEngine",
    "VectorSearchResult",
    "build_ivf",
    "embed_corpus",
    "embed_index",
    "load_ivf",
    "rrf_fuse",
    "save_ivf",
]
