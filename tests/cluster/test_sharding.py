"""Tests for docID-interval sharding."""

import random

import pytest

from repro.cluster import ShardedCorpus, shard_documents
from repro.errors import ConfigurationError
from repro.index.builder import GlobalStatistics


def _documents(num_docs=600, vocab=25, seed=4):
    rng = random.Random(seed)
    words = [f"w{i}" for i in range(vocab)]
    return [
        [words[min(vocab - 1, int(rng.expovariate(0.2)))]
         for _ in range(rng.randrange(4, 25))]
        for _ in range(num_docs)
    ]


@pytest.fixture(scope="module")
def sharded():
    return shard_documents(_documents(), num_shards=3)


class TestStructure:
    def test_shard_count(self, sharded):
        assert sharded.num_shards == 3
        assert len(sharded.boundaries) == 4
        assert sharded.boundaries[0] == 0
        assert sharded.boundaries[-1] == 600

    def test_intervals_disjoint_and_complete(self, sharded):
        bounds = sharded.boundaries
        assert bounds == sorted(bounds)
        covered = sum(
            bounds[i + 1] - bounds[i] for i in range(sharded.num_shards)
        )
        assert covered == 600

    def test_postings_respect_intervals(self, sharded):
        for i, index in enumerate(sharded.indexes):
            lo, hi = sharded.boundaries[i], sharded.boundaries[i + 1]
            for term in list(index)[:8]:
                for posting in index.posting_list(term).decode_all():
                    assert lo <= posting.doc_id < hi

    def test_global_doc_stats_replicated(self, sharded):
        """Every shard knows the whole corpus's N and avgdl."""
        stats = [ix.stats for ix in sharded.indexes]
        assert len({s.num_docs for s in stats}) == 1
        assert len({round(s.avgdl, 9) for s in stats}) == 1

    def test_global_idf_consistent_across_shards(self, sharded):
        """A term present in several shards carries one IDF."""
        common = None
        for term in sharded.indexes[0].terms:
            if all(term in ix for ix in sharded.indexes):
                common = term
                break
        assert common is not None
        idfs = {round(ix.posting_list(common).idf, 12)
                for ix in sharded.indexes}
        assert len(idfs) == 1


class TestReplication:
    def test_default_is_unreplicated(self, sharded):
        assert sharded.replication_factor == 1
        assert sharded.num_shards == 3
        assert sharded.replica_indexes(0) == []

    def test_replicas_share_the_built_index(self):
        sharded = shard_documents(_documents(60), num_shards=2,
                                  replication_factor=3)
        for shard in range(2):
            replicas = sharded.replica_indexes(shard)
            assert len(replicas) == 2
            # Read-only indexes are shared, not copied: replication is
            # engine redundancy, not data duplication.
            assert all(r is sharded.indexes[shard] for r in replicas)

    def test_replica_indexes_validates_shard(self, sharded):
        with pytest.raises(ConfigurationError):
            sharded.replica_indexes(3)
        with pytest.raises(ConfigurationError):
            sharded.replica_indexes(-1)

    def test_replication_factor_validated(self):
        with pytest.raises(ConfigurationError):
            shard_documents(_documents(30), num_shards=2,
                            replication_factor=0)


class TestBoundaries:
    """Regression: the shard boundaries are validated at construction
    (strictly increasing, one more than the shards)."""

    def test_duplicate_boundary_rejected(self, sharded):
        with pytest.raises(ConfigurationError):
            ShardedCorpus(sharded.indexes, [0, 200, 200, 600])

    def test_decreasing_boundary_rejected(self, sharded):
        with pytest.raises(ConfigurationError):
            ShardedCorpus(sharded.indexes, [0, 400, 200, 600])

    def test_boundary_count_must_bracket_shards(self, sharded):
        with pytest.raises(ConfigurationError):
            ShardedCorpus(sharded.indexes, [0, 200, 600])


class TestValidation:
    def test_zero_shards_rejected(self):
        with pytest.raises(ConfigurationError):
            shard_documents(_documents(10), num_shards=0)

    def test_more_shards_than_docs_rejected(self):
        with pytest.raises(ConfigurationError):
            shard_documents(_documents(5), num_shards=10)

    def test_single_shard_works(self):
        sharded = shard_documents(_documents(50), num_shards=1)
        assert sharded.num_shards == 1


class TestGlobalStatistics:
    def test_idf_uses_global_df(self):
        stats = GlobalStatistics(num_docs=1000, term_dfs={"x": 100})
        import math

        expected = math.log((1000 - 100 + 0.5) / (100 + 0.5) + 1.0)
        assert stats.idf("x", local_df=3) == pytest.approx(expected)

    def test_idf_falls_back_to_local(self):
        stats = GlobalStatistics(num_docs=1000)
        a = stats.idf("unknown", local_df=10)
        b = GlobalStatistics(num_docs=1000, term_dfs={"unknown": 10}).idf(
            "unknown", 999
        )
        assert a == pytest.approx(b)
