"""Lucene-baseline tests: equivalence + host-side traffic accounting."""

import pytest

from repro.baselines import LuceneConfig, LuceneEngine
from repro.core import BossAccelerator, BossConfig
from tests.conftest import brute_force_topk, hits_as_pairs, oracle_as_pairs

TABLE_II = [
    '"t0"',
    '"t1" AND "t3"',
    '"t2" OR "t5"',
    '"t0" AND "t1" AND "t2" AND "t3"',
    '"t1" OR "t4" OR "t7" OR "t9"',
    '"t0" AND ("t2" OR "t4" OR "t8")',
]


@pytest.fixture(scope="module")
def lucene(small_index):
    return LuceneEngine(small_index, LuceneConfig(k=50))


class TestCorrectness:
    @pytest.mark.parametrize("expr", TABLE_II)
    def test_matches_oracle(self, lucene, small_index, expr):
        from repro.core.query import parse_query

        oracle = brute_force_topk(small_index, parse_query(expr), 50)
        assert hits_as_pairs(lucene.search(expr)) == oracle_as_pairs(oracle)

    @pytest.mark.parametrize("expr", TABLE_II)
    def test_matches_boss(self, lucene, small_index, expr):
        boss = BossAccelerator(small_index, BossConfig(k=50))
        assert hits_as_pairs(lucene.search(expr)) == hits_as_pairs(
            boss.search(expr)
        )

    def test_k_override(self, lucene):
        assert len(lucene.search('"t0"', k=4).hits) == 4

    def test_default_config_constructs_and_searches(self, small_index):
        """Regression: the inner engine read ``k`` off the ``config``
        argument, so ``LuceneEngine(index)`` raised AttributeError."""
        engine = LuceneEngine(small_index)
        assert engine.config == LuceneConfig()
        hits = engine.search('"t0" OR "t1"').hits
        assert len(hits) == LuceneConfig().k
        assert hits_as_pairs(engine.search('"t0" OR "t1"')) == \
            hits_as_pairs(BossAccelerator(small_index).search('"t0" OR "t1"'))


class TestHostSideAccounting:
    def test_all_loads_cross_interconnect(self, lucene):
        """A host engine pulls every loaded byte over the shared link."""
        result = lucene.search('"t2" OR "t5"')
        assert result.interconnect_bytes == result.traffic.read_bytes
        assert result.interconnect_bytes > 0

    def test_interconnect_dwarfs_boss(self, lucene, small_index):
        """NDP's headline: BOSS ships top-k, the host engine ships data."""
        boss = BossAccelerator(small_index, BossConfig(k=50))
        expr = '"t1" OR "t4" OR "t7" OR "t9"'
        assert (
            lucene.search(expr).interconnect_bytes
            > boss.search(expr).interconnect_bytes
        )

    def test_no_block_max_skipping(self, lucene, small_index):
        """Lucene's pruning is document-level WAND only: with a tiny k
        its block-ET-enabled hardware counterpart never evaluates more
        documents."""
        boss = BossAccelerator(small_index, BossConfig(k=3))
        lucene_small = LuceneEngine(small_index, LuceneConfig(k=3))
        for expr in ('"t0"', '"t2" OR "t5"'):
            assert (
                boss.search(expr).work.docs_evaluated
                <= lucene_small.search(expr).work.docs_evaluated
            )
