"""IVF build determinism, layout invariants, codecs, .bossv roundtrip."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, InvertedIndexError
from repro.vector import build_ivf, load_ivf, save_ivf
from repro.vector.ivf import (
    DOC_ID_BYTES,
    KMEANS_ITERS,
    MAGIC,
    _payload_bytes_per_vector,
    _spherical_kmeans,
)


def mask_loop_kmeans(vectors, num_clusters):
    """The k-means as it was before members were grouped once a round:
    one boolean mask and one gather per cluster. Also returns how many
    empty clusters it reseeded."""
    n = len(vectors)
    idx = np.linspace(0, n - 1, num_clusters).astype(np.int64)
    centroids = vectors[idx].copy()
    reseeds = 0
    sims = None
    for _ in range(KMEANS_ITERS):
        sims = np.matmul(vectors, centroids.T, out=sims)
        assignment = np.argmax(sims, axis=1)
        best = sims[np.arange(n), assignment]
        for cid in range(num_clusters):
            members = assignment == cid
            if not members.any():
                worst = int(np.argmin(best))
                centroids[cid] = vectors[worst]
                assignment[worst] = cid
                best[worst] = 1.0
                reseeds += 1
                continue
            mean = vectors[members].mean(axis=0)
            norm = float(np.linalg.norm(mean))
            centroids[cid] = mean / norm if norm > 0 else centroids[cid]
    centroids = centroids.astype(np.float32)
    sims = np.matmul(vectors, centroids.T, out=sims)
    return centroids, np.argmax(sims, axis=1), reseeds


def unit_rows(rng, rows, dim=16):
    matrix = rng.standard_normal((rows, dim))
    return (matrix / np.linalg.norm(matrix, axis=1, keepdims=True)
            ).astype(np.float32)


class TestBuild:
    def test_deterministic(self, embeddings, ivf_fp32):
        again = build_ivf(embeddings, codec="fp32")
        assert np.array_equal(ivf_fp32.centroids, again.centroids)
        for a, b in zip(ivf_fp32.clusters, again.clusters):
            assert np.array_equal(a.doc_ids, b.doc_ids)
            assert np.array_equal(a.codes, b.codes)

    @pytest.mark.parametrize("rows,copies,num_clusters,twin_seeds", [
        (5, 8, 12, False),   # more clusters than distinct points
        (3, 20, 9, False),
        (200, 1, 14, True),  # twin seed points: mixed clusters reseed
        (60, 1, 8, True),
        (200, 1, 14, False),  # no reseed
    ])
    def test_grouped_kmeans_matches_the_mask_loop(self, rows, copies,
                                                  num_clusters, twin_seeds):
        rng = np.random.default_rng(rows)
        vectors = unit_rows(rng, rows).repeat(copies, axis=0)
        vectors = vectors[rng.permutation(len(vectors))]
        if twin_seeds:
            # Every other evenly spaced seed copies its predecessor, so
            # round one empties a cluster while its neighbours still
            # hold distinct rows, and the reseed moves one of them.
            seeds = np.linspace(0, len(vectors) - 1,
                                num_clusters).astype(np.int64)
            vectors[seeds[1::2]] = vectors[seeds[::2]]
        centroids, assignment = _spherical_kmeans(vectors, num_clusters)
        expected, expected_assignment, reseeds = mask_loop_kmeans(
            vectors, num_clusters)
        assert (reseeds > 0) == (twin_seeds or num_clusters > rows)
        assert centroids.tobytes() == expected.tobytes()
        assert np.array_equal(assignment, expected_assignment)

    def test_default_cluster_count_is_sqrt(self, embeddings, ivf_fp32):
        expected = max(1, int(round(embeddings.num_docs ** 0.5)))
        assert ivf_fp32.num_clusters == expected

    def test_every_doc_in_exactly_one_cluster(self, ivf_fp32, embeddings):
        all_ids = np.concatenate(
            [c.doc_ids for c in ivf_fp32.clusters if c.num_vectors]
        )
        assert len(all_ids) == embeddings.num_docs
        assert len(np.unique(all_ids)) == embeddings.num_docs

    def test_packing_is_contiguous(self, ivf_fp32):
        offset = 0
        for cluster in ivf_fp32.clusters:
            assert cluster.base == offset
            offset += cluster.nbytes
        assert offset == ivf_fp32.packed_bytes

    def test_validate_passes(self, ivf_fp32, ivf_int8):
        ivf_fp32.validate()
        ivf_int8.validate()

    def test_invalid_codec_rejected(self, embeddings):
        with pytest.raises(ConfigurationError):
            build_ivf(embeddings, codec="fp16")

    def test_invalid_cluster_count_rejected(self, embeddings):
        with pytest.raises(ConfigurationError):
            build_ivf(embeddings, num_clusters=0)
        with pytest.raises(ConfigurationError):
            build_ivf(embeddings, num_clusters=embeddings.num_docs + 1)


class TestCodecs:
    def test_fp32_layout_bytes(self, ivf_fp32, embeddings):
        per = DOC_ID_BYTES + 4 * embeddings.dim
        assert ivf_fp32.packed_bytes == embeddings.num_docs * per

    def test_int8_layout_bytes(self, ivf_int8, embeddings):
        per = DOC_ID_BYTES + embeddings.dim + 4
        assert ivf_int8.packed_bytes == embeddings.num_docs * per

    def test_int8_shrinks_layout(self, ivf_fp32, ivf_int8):
        assert ivf_int8.packed_bytes < ivf_fp32.packed_bytes

    def test_payload_bytes_unknown_codec(self):
        with pytest.raises(ConfigurationError):
            _payload_bytes_per_vector("fp16", 32)

    def test_int8_reconstruction_error_bounded(self, ivf_int8, embeddings):
        """Dequantized vectors stay within one quantization step of the
        raw embeddings, per component."""
        for cluster in ivf_int8.clusters:
            if not cluster.num_vectors:
                continue
            raw = embeddings.doc_vectors[cluster.doc_ids]
            rebuilt = ivf_int8.reconstruct(cluster.cluster_id)
            step = cluster.scales[:, None]
            assert np.all(np.abs(raw - rebuilt) <= step * 0.5 + 1e-6)

    def test_fp32_reconstruction_exact(self, ivf_fp32, embeddings):
        for cluster in ivf_fp32.clusters[:5]:
            rebuilt = ivf_fp32.reconstruct(cluster.cluster_id)
            assert np.array_equal(
                rebuilt, embeddings.doc_vectors[cluster.doc_ids]
            )


class TestValidateTamper:
    def _copy(self, ivf, embeddings):
        return build_ivf(embeddings, codec=ivf.codec)

    def test_rejects_bad_base(self, ivf_fp32, embeddings):
        tampered = self._copy(ivf_fp32, embeddings)
        tampered.clusters[1].base += 4
        with pytest.raises(InvertedIndexError):
            tampered.validate()

    def test_rejects_unsorted_doc_ids(self, ivf_fp32, embeddings):
        tampered = self._copy(ivf_fp32, embeddings)
        cluster = next(c for c in tampered.clusters if c.num_vectors >= 2)
        cluster.doc_ids = cluster.doc_ids[::-1].copy()
        with pytest.raises(InvertedIndexError):
            tampered.validate()

    def test_rejects_wrong_nbytes(self, ivf_fp32, embeddings):
        tampered = self._copy(ivf_fp32, embeddings)
        cluster = next(c for c in tampered.clusters if c.num_vectors)
        cluster.nbytes -= 1
        with pytest.raises(InvertedIndexError):
            tampered.validate()


class TestSerialization:
    @pytest.mark.parametrize("codec", ["fp32", "int8"])
    def test_roundtrip_exact(self, request, codec, tmp_path):
        ivf = request.getfixturevalue(f"ivf_{codec}")
        path = tmp_path / f"index.{codec}.bossv"
        nbytes = save_ivf(ivf, path)
        assert path.stat().st_size == nbytes
        loaded = load_ivf(path)
        assert loaded.codec == ivf.codec
        assert loaded.num_docs == ivf.num_docs
        assert np.array_equal(loaded.centroids, ivf.centroids)
        for a, b in zip(ivf.clusters, loaded.clusters):
            assert np.array_equal(a.doc_ids, b.doc_ids)
            assert np.array_equal(a.codes, b.codes)
            assert np.array_equal(a.scales, b.scales)
            assert a.base == b.base and a.nbytes == b.nbytes

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bossv"
        path.write_bytes(b"NOTBOSSV" + b"\x00" * 64)
        with pytest.raises(InvertedIndexError):
            load_ivf(path)

    def test_truncated_file_rejected(self, ivf_fp32, tmp_path):
        path = tmp_path / "torn.bossv"
        save_ivf(ivf_fp32, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises((InvertedIndexError, IndexError, ValueError)):
            load_ivf(path)

    def test_magic_prefix(self, ivf_int8, tmp_path):
        path = tmp_path / "m.bossv"
        save_ivf(ivf_int8, path)
        assert path.read_bytes().startswith(MAGIC)
