"""The synthetic embedding model: determinism, geometry, topic bands."""

import numpy as np
import pytest

from repro.errors import QueryError
from repro.vector import embed_corpus, embed_index
from repro.vector.embeddings import DIM, NUM_TOPICS
from repro.workloads.corpus import make_corpus


class TestDeterminism:
    def test_same_corpus_same_vectors(self, corpus, embeddings):
        again = embed_corpus(make_corpus("ccnews-like", scale=0.05, seed=1))
        assert np.array_equal(embeddings.doc_vectors, again.doc_vectors)
        assert embeddings.term_vectors.keys() == again.term_vectors.keys()
        for term, vec in embeddings.term_vectors.items():
            assert np.array_equal(vec, again.term_vectors[term])

    def test_seed_derived_from_corpus_seed(self, corpus, embeddings):
        other = embed_corpus(make_corpus("ccnews-like", scale=0.05, seed=2))
        assert not np.array_equal(embeddings.doc_vectors, other.doc_vectors)

    def test_explicit_spec_overrides(self, corpus, embeddings):
        other = embed_index(corpus.index, seed=99)
        assert other.dim == embeddings.dim == DIM
        assert other.num_docs == embeddings.num_docs
        assert not np.array_equal(other.doc_vectors, embeddings.doc_vectors)


class TestGeometry:
    def test_doc_vectors_unit_norm(self, embeddings):
        norms = np.linalg.norm(embeddings.doc_vectors, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-5)

    def test_term_vectors_unit_norm(self, embeddings):
        for vec in embeddings.term_vectors.values():
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-5)

    def test_topic_bands_cohere(self, embeddings):
        """Same-band documents are closer than cross-band on average."""
        vectors = embeddings.doc_vectors
        topics = embeddings.doc_topics
        same = []
        cross = []
        for band in range(NUM_TOPICS):
            members = vectors[topics == band]
            others = vectors[topics != band]
            centroid = members.mean(axis=0)
            same.append(float((members @ centroid).mean()))
            cross.append(float((others @ centroid).mean()))
        assert min(same) > max(cross)

    def test_band_assignment_contiguous(self, embeddings):
        assert np.all(np.diff(embeddings.doc_topics) >= 0)
        assert embeddings.doc_topics[0] == 0
        assert (
            embeddings.doc_topics[-1] == NUM_TOPICS - 1
        )


class TestQueryVectors:
    def test_unknown_terms_skipped(self, embeddings):
        known = embeddings.query_vector(["term0001"])
        mixed = embeddings.query_vector(["term0001", "no-such-term"])
        assert np.array_equal(known, mixed)

    def test_all_unknown_raises(self, embeddings):
        with pytest.raises(QueryError):
            embeddings.query_vector(["no-such-term"])

    def test_query_vector_unit_norm(self, embeddings):
        vec = embeddings.query_vector(["term0001", "term0003"])
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-5)

    def test_exact_topk_deterministic_ties(self, embeddings):
        q = embeddings.query_vector(["term0002"])
        assert embeddings.exact_topk(q, 10) == embeddings.exact_topk(q, 10)


class TestEmbedIndex:
    def test_works_on_bare_index(self, corpus):
        built = embed_index(corpus.index, seed=5)
        assert built.num_docs == corpus.spec.num_docs
        assert set(built.term_vectors) == set(corpus.index.terms)
