"""Committed digests that pin the vector lane's float order.

:func:`repro.vector.ivf.build_ivf` runs spherical k-means in float32
and :meth:`repro.vector.ivf.IVFIndex.reconstruct` dequantizes each
cluster into the matrix every ANN query multiplies against. Both are
numpy reductions whose result depends on summation order, so a change
that regroups them (a different matmul form, an accumulation dtype, a
vectorised update) can move the lane's rankings in the last bit without
any test noticing. ``golden/ivf.json`` holds, per codec, the sha256 of
the centroid table and of every cluster's reconstructed matrix (shape
included) for one small preset, as computed by the code before any such
change, and the numpy version that computed them: like
``benchmarks/results.txt``, the pin holds under that numpy only.

Regenerate only when the lane's floats change on purpose::

    PYTHONPATH=src:. python -m tests.ivf_golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict

import numpy as np

from repro.vector import build_ivf, embed_corpus
from repro.vector.ivf import VECTOR_CODECS, IVFIndex
from repro.workloads.corpus import make_corpus

GOLDEN_PATH = Path(__file__).parent / "golden" / "ivf.json"

#: The preset the vector tests share (``tests/vector/conftest.py``).
PRESET, SCALE, SEED = "ccnews-like", 0.05, 1


def matrix_digest(matrix: np.ndarray) -> str:
    """sha256 over the shape and the little-endian float32 bytes."""
    digest = hashlib.sha256(repr(matrix.shape).encode())
    digest.update(np.ascontiguousarray(matrix, dtype="<f4").tobytes())
    return digest.hexdigest()


def ivf_digests(ivf: IVFIndex) -> Dict[str, object]:
    return {
        "centroids": matrix_digest(ivf.centroids),
        "reconstruct": [matrix_digest(ivf.reconstruct(cid))
                        for cid in range(ivf.num_clusters)],
    }


def load() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def _main() -> None:
    embeddings = embed_corpus(make_corpus(PRESET, scale=SCALE, seed=SEED))
    record = {codec: ivf_digests(build_ivf(embeddings, codec=codec))
              for codec in VECTOR_CODECS}
    record["numpy"] = np.__version__
    GOLDEN_PATH.write_text(json.dumps(record, indent=1, sort_keys=True)
                           + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    _main()
