"""IVF-style clustered ANN index with a packed on-device layout.

The layout mirrors how an inverted *lexical* index lives on the SCM
pool, because the access economics are the same (arXiv 2405.03267):

* **centroid table** — ``num_clusters x dim`` float32, small and hot,
  resident in DRAM like the per-block metadata arrays;
* **cluster regions** — for each cluster, the member entries packed
  back-to-back: ``doc_id`` (4 B) + the codec'd vector payload. Clusters
  are laid out contiguously in cluster-id order on the SCM pool, so a
  probe that scans cluster ``c`` reads one sequential run, and jumping
  from cluster ``a`` to a non-adjacent cluster ``b`` pays one random
  access — exactly the hop/scan split :class:`repro.vector.engine.
  VectorEngine` charges.

Two vector codecs:

* ``fp32`` — raw float32, ``4 * dim`` bytes per vector;
* ``int8`` — per-vector symmetric scalar quantization (scale =
  max(abs)/127, stored as one float32), ``dim + 4`` bytes per vector —
  the 3.6x layout shrink that trades bandwidth for recall.

Search *and* the brute-force oracle both score the **reconstructed**
(dequantized) vectors with one shared kernel, which is what makes the
``nprobe = num_clusters`` differential bit-exact for every codec.

Serialization (``.bossv``) reuses the varint/length-prefixed primitives
of the ``.bossx`` format (:mod:`repro.index.binaryio`) so the torn-file
fuzzing story stays one codec wide.
"""

from __future__ import annotations

from dataclasses import dataclass
from io import BytesIO
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError, InvertedIndexError
from repro.index.binaryio import (
    read_bytes_field,
    read_varint,
    write_bytes_field,
    write_varint,
)
from repro.vector.embeddings import CorpusEmbeddings

MAGIC = b"BOSSVEC1"

#: Bytes of the packed doc_id field preceding each vector payload.
DOC_ID_BYTES = 4

VECTOR_CODECS = ("fp32", "int8")

#: Lloyd iterations of the IVF build's spherical k-means.
KMEANS_ITERS = 12


def _payload_bytes_per_vector(codec: str, dim: int) -> int:
    if codec == "fp32":
        return 4 * dim
    if codec == "int8":
        return dim + 4  # int8 components + one float32 scale
    raise ConfigurationError(
        f"unknown vector codec {codec!r}; known: {', '.join(VECTOR_CODECS)}"
    )


@dataclass
class ClusterLayout:
    """One cluster's packed region on the device."""

    cluster_id: int
    #: Member docIDs, ascending (``[n]`` int64).
    doc_ids: np.ndarray
    #: Stored payload: float32 ``[n, dim]`` (fp32) or int8 ``[n, dim]``.
    codes: np.ndarray
    #: Per-vector dequantization scales (``[n]`` float32; all-ones for
    #: fp32, where reconstruction is the identity).
    scales: np.ndarray
    #: Byte offset of this cluster's region in the packed pool.
    base: int
    #: Packed size: ``n * (DOC_ID_BYTES + payload_bytes_per_vector)``.
    nbytes: int

    @property
    def num_vectors(self) -> int:
        return int(len(self.doc_ids))


class IVFIndex:
    """Centroid table + packed cluster regions + reconstruction cache."""

    def __init__(self, centroids: np.ndarray,
                 clusters: List[ClusterLayout], codec: str,
                 num_docs: int) -> None:
        if codec not in VECTOR_CODECS:
            raise ConfigurationError(f"unknown vector codec {codec!r}")
        self.centroids = centroids.astype(np.float32)
        self.clusters = clusters
        self.codec = codec
        self.num_docs = num_docs
        self._reconstructed: Dict[int, np.ndarray] = {}

    @property
    def dim(self) -> int:
        return int(self.centroids.shape[1])

    @property
    def num_clusters(self) -> int:
        return int(self.centroids.shape[0])

    @property
    def centroid_bytes(self) -> int:
        """DRAM footprint of the centroid table (float32)."""
        return self.num_clusters * self.dim * 4

    @property
    def packed_bytes(self) -> int:
        """Total packed cluster bytes on the device pool."""
        return sum(c.nbytes for c in self.clusters)

    def reconstruct(self, cluster_id: int) -> np.ndarray:
        """The cluster's vectors as float32 ``[n, dim]``, dequantized.

        This is the single scoring substrate: :meth:`VectorEngine.search
        <repro.vector.engine.VectorEngine.search>` and the brute-force
        oracle both multiply against exactly this matrix, so quantization
        error cancels out of the differential and shows up only in
        recall@k against the raw-embedding ground truth.
        """
        cached = self._reconstructed.get(cluster_id)
        if cached is not None:
            return cached
        cluster = self.clusters[cluster_id]
        if self.codec == "fp32":
            matrix = cluster.codes.astype(np.float32, copy=False)
        else:
            matrix = (
                cluster.codes.astype(np.float32)
                * cluster.scales[:, None]
            )
        self._reconstructed[cluster_id] = matrix
        return matrix

    def validate(self) -> None:
        """Structural invariants: packing, ordering, docID coverage."""
        expected_base = 0
        seen = 0
        per_vector = DOC_ID_BYTES + _payload_bytes_per_vector(
            self.codec, self.dim
        )
        for cid, cluster in enumerate(self.clusters):
            if cluster.cluster_id != cid:
                raise InvertedIndexError("cluster ids out of order")
            if cluster.base != expected_base:
                raise InvertedIndexError(
                    f"cluster {cid} base {cluster.base} != packed offset "
                    f"{expected_base}"
                )
            if cluster.nbytes != cluster.num_vectors * per_vector:
                raise InvertedIndexError(
                    f"cluster {cid} nbytes disagrees with member count"
                )
            ids = cluster.doc_ids
            if len(ids) and np.any(np.diff(ids) <= 0):
                raise InvertedIndexError(
                    f"cluster {cid} docIDs not strictly ascending"
                )
            expected_base += cluster.nbytes
            seen += cluster.num_vectors
        if seen != self.num_docs:
            raise InvertedIndexError(
                f"clusters hold {seen} vectors for {self.num_docs} documents"
            )


# ---------------------------------------------------------------------------
# Build: deterministic spherical k-means + codec packing
# ---------------------------------------------------------------------------


def _group(assignment: np.ndarray,
           num_clusters: int) -> Tuple[np.ndarray, List[int]]:
    """Every cluster's members as one run of docIDs: cluster ``c`` holds
    ``order[bounds[c]:bounds[c + 1]]``, ascending (a stable sort of the
    assignment)."""
    order = np.argsort(assignment, kind="stable")
    bounds = [0]
    bounds += np.bincount(assignment, minlength=num_clusters).cumsum().tolist()
    return order, bounds


def _spherical_kmeans(vectors: np.ndarray,
                      num_clusters: int) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic spherical k-means; returns (centroids, assignment).

    Initialization is evenly spaced docIDs (which, under the banded
    topic model, spreads seeds across topics); ties in the argmax
    assignment resolve to the lowest cluster id; an emptied cluster is
    reseeded on the document least served by its current centroid. No
    randomness — the build is a pure function.

    Each round groups the members once: a stable sort of the assignment
    lists every cluster's docIDs as one contiguous, ascending run, so a
    cluster's mean is taken over exactly the rows, in exactly the order,
    a per-cluster mask would select. A reseed moves one document between
    clusters, so it regroups before the next cluster is averaged.
    """
    n = len(vectors)
    idx = np.linspace(0, n - 1, num_clusters).astype(np.int64)
    centroids = vectors[idx].copy()
    assignment = np.zeros(n, dtype=np.int64)
    # One similarity buffer: a fresh product per pass keeps two alive.
    sims = None
    for _ in range(KMEANS_ITERS):
        sims = np.matmul(vectors, centroids.T, out=sims)
        assignment = np.argmax(sims, axis=1)
        best = sims[np.arange(n), assignment]
        order, bounds = _group(assignment, num_clusters)
        for cid in range(num_clusters):
            start, end = bounds[cid], bounds[cid + 1]
            if start == end:
                # Reseed on the globally worst-served document.
                worst = int(np.argmin(best))
                centroids[cid] = vectors[worst]
                assignment[worst] = cid
                best[worst] = 1.0
                order, bounds = _group(assignment, num_clusters)
                continue
            mean = vectors[order[start:end]].mean(axis=0)
            norm = float(np.linalg.norm(mean))
            centroids[cid] = (
                mean / norm if norm > 0 else centroids[cid]
            )
    centroids = centroids.astype(np.float32)
    sims = np.matmul(vectors, centroids.T, out=sims)
    assignment = np.argmax(sims, axis=1)
    return centroids, assignment


def _quantize(vectors: np.ndarray, codec: str) -> Tuple[np.ndarray, np.ndarray]:
    """Codec-encode a float32 ``[n, dim]`` batch -> (codes, scales)."""
    if codec == "fp32":
        return (
            vectors.astype(np.float32),
            np.ones(len(vectors), dtype=np.float32),
        )
    peaks = np.abs(vectors).max(axis=1)
    scales = np.where(peaks > 0, peaks / 127.0, 1.0).astype(np.float32)
    codes = np.clip(
        np.round(vectors / scales[:, None]), -127, 127
    ).astype(np.int8)
    return codes, scales


def build_ivf(embeddings: CorpusEmbeddings,
              num_clusters: Optional[int] = None,
              codec: str = "fp32") -> IVFIndex:
    """Cluster the document embeddings (``KMEANS_ITERS`` rounds of
    spherical k-means) and pack the device layout.

    ``num_clusters`` defaults to ``round(sqrt(num_docs))``, the usual
    IVF sizing. The returned index passes :meth:`IVFIndex.validate`.
    """
    if codec not in VECTOR_CODECS:
        raise ConfigurationError(
            f"unknown vector codec {codec!r}; known: "
            f"{', '.join(VECTOR_CODECS)}"
        )
    vectors = embeddings.doc_vectors
    n = len(vectors)
    if num_clusters is None:
        num_clusters = max(1, int(round(n ** 0.5)))
    if not 1 <= num_clusters <= n:
        raise ConfigurationError(
            f"num_clusters must be in [1, {n}], got {num_clusters}"
        )
    centroids, assignment = _spherical_kmeans(vectors, num_clusters)
    per_vector = DOC_ID_BYTES + _payload_bytes_per_vector(
        codec, int(vectors.shape[1])
    )
    clusters: List[ClusterLayout] = []
    base = 0
    order, bounds = _group(assignment, num_clusters)
    for cid in range(num_clusters):
        doc_ids = order[bounds[cid]:bounds[cid + 1]].astype(np.int64)
        codes, scales = _quantize(vectors[doc_ids], codec)
        nbytes = len(doc_ids) * per_vector
        clusters.append(ClusterLayout(
            cluster_id=cid, doc_ids=doc_ids, codes=codes,
            scales=scales, base=base, nbytes=nbytes,
        ))
        base += nbytes
    index = IVFIndex(centroids, clusters, codec, num_docs=n)
    index.validate()
    return index


# ---------------------------------------------------------------------------
# .bossv serialization
# ---------------------------------------------------------------------------


def save_ivf(index: IVFIndex, path: Union[str, Path]) -> int:
    """Write the index as a ``.bossv`` file; returns bytes written."""
    out = BytesIO()
    out.write(MAGIC)
    write_varint(out, index.dim)
    write_varint(out, index.num_docs)
    write_varint(out, index.num_clusters)
    write_bytes_field(out, index.codec.encode("ascii"))
    write_bytes_field(
        out, index.centroids.astype("<f4").tobytes()
    )
    for cluster in index.clusters:
        write_varint(out, cluster.num_vectors)
        prev = 0
        for doc_id in cluster.doc_ids:
            write_varint(out, int(doc_id) - prev)
            prev = int(doc_id)
        if index.codec == "fp32":
            write_bytes_field(out, cluster.codes.astype("<f4").tobytes())
            write_bytes_field(out, b"")
        else:
            write_bytes_field(out, cluster.codes.tobytes())
            write_bytes_field(out, cluster.scales.astype("<f4").tobytes())
    payload = out.getvalue()
    Path(path).write_bytes(payload)
    return len(payload)


def load_ivf(path: Union[str, Path]) -> IVFIndex:
    """Parse a ``.bossv`` file back into a bit-identical index."""
    data = Path(path).read_bytes()
    if data[:len(MAGIC)] != MAGIC:
        raise InvertedIndexError(
            f"{path}: not a .bossv file (bad magic)"
        )
    offset = len(MAGIC)
    dim, offset = read_varint(data, offset)
    num_docs, offset = read_varint(data, offset)
    num_clusters, offset = read_varint(data, offset)
    codec_raw, offset = read_bytes_field(data, offset)
    codec = codec_raw.decode("ascii")
    if codec not in VECTOR_CODECS:
        raise InvertedIndexError(f"{path}: unknown vector codec {codec!r}")
    centroid_raw, offset = read_bytes_field(data, offset)
    if len(centroid_raw) != num_clusters * dim * 4:
        raise InvertedIndexError(f"{path}: centroid table size mismatch")
    centroids = np.frombuffer(centroid_raw, dtype="<f4").reshape(
        num_clusters, dim
    ).astype(np.float32)
    per_vector = DOC_ID_BYTES + _payload_bytes_per_vector(codec, dim)
    clusters: List[ClusterLayout] = []
    base = 0
    for cid in range(num_clusters):
        count, offset = read_varint(data, offset)
        doc_ids = np.empty(count, dtype=np.int64)
        prev = 0
        for i in range(count):
            delta, offset = read_varint(data, offset)
            prev += delta
            doc_ids[i] = prev
        codes_raw, offset = read_bytes_field(data, offset)
        scales_raw, offset = read_bytes_field(data, offset)
        if codec == "fp32":
            if len(codes_raw) != count * dim * 4 or scales_raw:
                raise InvertedIndexError(
                    f"{path}: cluster {cid} payload size mismatch"
                )
            codes = np.frombuffer(codes_raw, dtype="<f4").reshape(
                count, dim
            ).astype(np.float32)
            scales = np.ones(count, dtype=np.float32)
        else:
            if len(codes_raw) != count * dim or len(scales_raw) != count * 4:
                raise InvertedIndexError(
                    f"{path}: cluster {cid} payload size mismatch"
                )
            codes = np.frombuffer(codes_raw, dtype=np.int8).reshape(
                count, dim
            ).copy()
            scales = np.frombuffer(scales_raw, dtype="<f4").astype(
                np.float32
            )
        nbytes = count * per_vector
        clusters.append(ClusterLayout(
            cluster_id=cid, doc_ids=doc_ids, codes=codes,
            scales=scales, base=base, nbytes=nbytes,
        ))
        base += nbytes
    index = IVFIndex(centroids, clusters, codec, num_docs=num_docs)
    index.validate()
    return index
