"""Tests for the root node: fan-out, pruning, and merge correctness."""

import random

import pytest

from repro.baselines import IIUAccelerator, IIUConfig
from repro.cluster import SearchCluster, shard_documents
from repro.core import BossAccelerator, BossConfig
from repro.core.query import (
    AndNode,
    OrNode,
    TermNode,
    parse_query,
    prune_query_scored,
)
from repro.core.result import SearchResult
from repro.errors import ConfigurationError
from repro.index import IndexBuilder

QUERIES = [
    '"t0"',
    '"t1" AND "t3"',
    '"t2" OR "t5"',
    '"t0" AND "t1" AND "t2" AND "t3"',
    '"t1" OR "t4" OR "t7" OR "t9"',
    '"t0" AND ("t2" OR "t4" OR "t8")',
]


def _documents(num_docs=900, vocab=30, seed=8):
    rng = random.Random(seed)
    words = [f"t{i}" for i in range(vocab)]
    return [
        [words[min(vocab - 1, int(rng.expovariate(0.15)))]
         for _ in range(rng.randrange(5, 30))]
        for _ in range(num_docs)
    ]


@pytest.fixture(scope="module")
def documents():
    return _documents()


@pytest.fixture(scope="module")
def monolithic(documents):
    builder = IndexBuilder()
    for doc in documents:
        builder.add_document(doc)
    return BossAccelerator(builder.build(), BossConfig(k=25))


@pytest.fixture(scope="module")
def cluster(documents):
    sharded = shard_documents(documents, num_shards=4)
    return SearchCluster([
        BossAccelerator(index, BossConfig(k=25))
        for index in sharded.indexes
    ])


class TestMergeCorrectness:
    @pytest.mark.parametrize("expr", QUERIES)
    def test_cluster_equals_monolithic(self, cluster, monolithic, expr):
        merged = cluster.search(expr, k=25)
        mono = monolithic.search(expr)
        assert [
            (h.doc_id, round(h.score, 8)) for h in merged.hits
        ] == [
            (h.doc_id, round(h.score, 8)) for h in mono.hits
        ]

    def test_varied_k(self, cluster, monolithic):
        for k in (1, 5, 60):
            merged = cluster.search('"t2" OR "t5"', k=k)
            mono = monolithic.search('"t2" OR "t5"', k=k)
            assert [h.doc_id for h in merged.hits] == [
                h.doc_id for h in mono.hits
            ]

    def test_works_with_iiu_leaves(self, documents, monolithic):
        sharded = shard_documents(documents, num_shards=3)
        cluster = SearchCluster([
            IIUAccelerator(index, IIUConfig(k=25))
            for index in sharded.indexes
        ])
        merged = cluster.search('"t1" AND "t3"', k=25)
        mono = monolithic.search('"t1" AND "t3"')
        assert [h.doc_id for h in merged.hits] == [
            h.doc_id for h in mono.hits
        ]


class TestAccounting:
    def test_traffic_is_sum_of_leaves(self, cluster):
        merged = cluster.search('"t2" OR "t5"', k=25)
        leaf_total = sum(
            r.traffic.total_bytes
            for r in merged.leaf_results if r is not None
        )
        assert merged.traffic.total_bytes == leaf_total

    def test_interconnect_is_sum_of_topk_streams(self, cluster):
        merged = cluster.search('"t0"', k=25)
        leaf_total = sum(
            r.interconnect_bytes
            for r in merged.leaf_results if r is not None
        )
        assert merged.interconnect_bytes == leaf_total

    @pytest.mark.parametrize("expr", QUERIES)
    def test_merged_result_sums_its_leaves(self, cluster, expr):
        merged = cluster.search(expr, k=25)
        assert isinstance(merged, SearchResult)
        leaves = [r for r in merged.leaf_results if r is not None]
        assert leaves
        total = SearchResult(query=merged.query, hits=[])
        for leaf in leaves:
            total.traffic.merge(leaf.traffic)
            total.work.merge(leaf.work)
            total.interconnect_bytes += leaf.interconnect_bytes
        assert merged.traffic == total.traffic
        assert merged.work == total.work
        assert merged.interconnect_bytes == total.interconnect_bytes

    def test_merge_ops_counted(self, cluster):
        merged = cluster.search('"t0"', k=25)
        assert merged.merge_ops == sum(
            len(r.hits) for r in merged.leaf_results if r is not None
        )

    def test_shards_touched(self, cluster):
        merged = cluster.search('"t0"', k=5)
        assert 1 <= merged.shards_touched <= len(cluster.engines)


class TestPruning:
    def test_missing_term_pruned_from_union(self):
        builder = IndexBuilder()
        builder.add_document(["alpha", "beta"])
        index = builder.build()
        node = parse_query('"alpha" OR "missing"')
        pruned = prune_query_scored(node, index.__contains__)
        assert pruned == TermNode("alpha")

    def test_missing_term_annihilates_intersection(self):
        builder = IndexBuilder()
        builder.add_document(["alpha", "beta"])
        index = builder.build()
        node = parse_query('"alpha" AND "missing"')
        assert prune_query_scored(node, index.__contains__) is None

    def test_all_terms_missing_returns_none(self):
        builder = IndexBuilder()
        builder.add_document(["alpha"])
        index = builder.build()
        node = parse_query('"x" OR "y"')
        assert prune_query_scored(node, index.__contains__) is None

    def test_nested_pruning(self):
        builder = IndexBuilder()
        builder.add_document(["a", "b"])
        index = builder.build()
        node = parse_query('"a" AND ("b" OR "zzz")')
        pruned = prune_query_scored(node, index.__contains__)
        assert pruned == AndNode((TermNode("a"), TermNode("b")))

    def test_shard_without_terms_contributes_nothing(self):
        # Two tiny disjoint-vocabulary shards.
        b1, b2 = IndexBuilder(), IndexBuilder()
        b1.add_document(["apple", "pear"])
        b2.declare_documents([2, 2])
        b2.add_postings("kiwi", [1], [1])
        cluster = SearchCluster([
            BossAccelerator(b1.build(), BossConfig(k=5)),
            BossAccelerator(b2.build(), BossConfig(k=5)),
        ])
        merged = cluster.search('"apple"', k=5)
        assert merged.shards_touched == 1
        assert len(merged.hits) == 1


def _skewed_documents(num_docs=400, seed=11):
    """Common terms everywhere; rare terms pinned to docID ranges.

    ``rare0`` appears only in the first hundred documents and ``rare1``
    only in the last hundred, so contiguous-interval sharding leaves
    whole shards without them — the configuration where pruning an
    annihilated AND branch used to drop its *present* terms from the
    shard's probe set and under-score union matches.
    """
    rng = random.Random(seed)
    common = [f"c{i}" for i in range(8)]
    docs = []
    for i in range(num_docs):
        tokens = [rng.choice(common) for _ in range(rng.randrange(4, 14))]
        if i < 100 and rng.random() < 0.5:
            tokens.append("rare0")
        if i >= num_docs - 100 and rng.random() < 0.5:
            tokens.append("rare1")
        docs.append(tokens)
    return docs


class TestSkewedShardScoreParity:
    """Mixed AND/OR differentials where shards lack whole terms."""

    MIXED_QUERIES = [
        '"c0" OR ("c1" AND "rare0")',
        '"c2" OR ("rare1" AND "c3")',
        '("c0" AND "c1") OR ("rare0" AND "rare1")',
        '"c0" AND ("c1" OR "rare0")',
        '("rare0" OR "rare1") AND "c4"',
        '"rare0" OR "rare1"',
        '("c5" AND "rare0") OR ("c6" AND "rare1") OR "c7"',
    ]

    @pytest.fixture(scope="class")
    def skewed(self):
        docs = _skewed_documents()
        builder = IndexBuilder()
        for doc in docs:
            builder.add_document(doc)
        mono = BossAccelerator(builder.build(), BossConfig(k=20))
        sharded = shard_documents(docs, num_shards=4)
        cluster = SearchCluster([
            BossAccelerator(index, BossConfig(k=20))
            for index in sharded.indexes
        ])
        return mono, cluster

    @pytest.mark.parametrize("expr", MIXED_QUERIES)
    def test_cluster_equals_monolithic(self, skewed, expr):
        mono, cluster = skewed
        merged = cluster.search(expr, k=20)
        reference = mono.search(expr, k=20)
        assert [
            (h.doc_id, round(h.score, 9)) for h in merged.hits
        ] == [
            (h.doc_id, round(h.score, 9)) for h in reference.hits
        ]

    def test_annihilated_and_keeps_present_terms(self):
        # One shard holds c0/c1 but not "rare": the AND branch cannot
        # match there, yet c1 must stay in the probe set so documents
        # matched through the OR's other branch score all their terms.
        builder = IndexBuilder()
        builder.add_document(["c0", "c1"])
        index = builder.build()
        node = parse_query('"c0" OR ("c1" AND "rare")')
        pruned = prune_query_scored(node, index.__contains__)
        assert pruned is not None
        assert set(pruned.terms()) == {"c0", "c1"}

    def test_scored_rewrite_adds_no_matches(self, skewed):
        mono, cluster = skewed
        for expr in self.MIXED_QUERIES:
            merged = cluster.search(expr, k=400)
            reference = mono.search(expr, k=400)
            assert {h.doc_id for h in merged.hits} == {
                h.doc_id for h in reference.hits
            }


class TestValidation:
    def test_empty_cluster_rejected(self):
        with pytest.raises(ConfigurationError):
            SearchCluster([])
