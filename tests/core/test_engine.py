"""BOSS engine tests: correctness vs the oracle, counters, and traffic."""

import pytest

from repro.core import BossAccelerator, BossConfig
from repro.core.query import parse_query
from repro.errors import QueryError
from repro.observability import RecordingObserver
from repro.scm.traffic import AccessClass, AccessPattern
from repro.sim.timing import BossTimingModel
from tests.conftest import brute_force_topk, hits_as_pairs, oracle_as_pairs

TABLE_II = [
    '"t0"',
    '"t1" AND "t3"',
    '"t2" OR "t5"',
    '"t0" AND "t1" AND "t2" AND "t3"',
    '"t1" OR "t4" OR "t7" OR "t9"',
    '"t0" AND ("t2" OR "t4" OR "t8")',
]

GENERAL_SHAPES = [
    '("t1" AND "t2") OR "t30"',
    '("t0" OR "t1") AND ("t2" OR "t3")',
    '"t5" AND "t6" AND "t7"',
    '("t3" AND "t9") OR ("t4" AND "t11")',
]


@pytest.fixture(scope="module")
def boss(small_index):
    return BossAccelerator(small_index, BossConfig(k=50))


class TestCorrectness:
    @pytest.mark.parametrize("expr", TABLE_II)
    def test_table_ii_matches_oracle(self, boss, small_index, expr):
        node = parse_query(expr)
        oracle = brute_force_topk(small_index, node, 50)
        assert hits_as_pairs(boss.search(expr)) == oracle_as_pairs(oracle)

    @pytest.mark.parametrize("expr", GENERAL_SHAPES)
    def test_general_shapes_match_oracle(self, boss, small_index, expr):
        node = parse_query(expr)
        oracle = brute_force_topk(small_index, node, 50)
        assert hits_as_pairs(boss.search(expr)) == oracle_as_pairs(oracle)

    @pytest.mark.parametrize("expr", TABLE_II)
    def test_ablations_share_results(self, small_index, expr):
        """ET must be safe: every ablation returns identical top-k."""
        full = BossAccelerator(small_index, BossConfig(k=25))
        exhaustive = BossAccelerator(small_index,
                                     BossConfig(k=25).exhaustive())
        block_only = BossAccelerator(small_index,
                                     BossConfig(k=25).block_only())
        reference = hits_as_pairs(full.search(expr))
        assert hits_as_pairs(exhaustive.search(expr)) == reference
        assert hits_as_pairs(block_only.search(expr)) == reference

    def test_accepts_ast_node(self, boss):
        node = parse_query('"t0" AND "t1"')
        assert hits_as_pairs(boss.search(node)) == hits_as_pairs(
            boss.search('"t0" AND "t1"')
        )

    def test_k_override(self, boss):
        assert len(boss.search('"t0"', k=3).hits) == 3

    def test_unknown_term_rejected(self, boss):
        with pytest.raises(QueryError):
            boss.search('"no-such-term"')


class TestCounters:
    def test_exhaustive_evaluates_every_union_doc(self, small_index):
        engine = BossAccelerator(small_index, BossConfig(k=10).exhaustive())
        result = engine.search('"t3" OR "t6"')
        t3 = {p.doc_id for p in small_index.posting_list("t3").decode_all()}
        t6 = {p.doc_id for p in small_index.posting_list("t6").decode_all()}
        assert result.work.docs_evaluated == len(t3 | t6)

    def test_et_never_evaluates_more_than_exhaustive(self, small_index):
        full = BossAccelerator(small_index, BossConfig(k=10))
        exhaustive = BossAccelerator(small_index,
                                     BossConfig(k=10).exhaustive())
        for expr in TABLE_II:
            assert (
                full.search(expr).work.docs_evaluated
                <= exhaustive.search(expr).work.docs_evaluated
            )

    def test_intersection_evaluates_only_matches(self, boss, small_index):
        result = boss.search('"t1" AND "t3"')
        t1 = {p.doc_id for p in small_index.posting_list("t1").decode_all()}
        t3 = {p.doc_id for p in small_index.posting_list("t3").decode_all()}
        assert result.work.docs_evaluated == len(t1 & t3)
        assert result.work.docs_matched == len(t1 & t3)

    def test_blocks_fetched_bounded_by_index(self, boss, small_index):
        result = boss.search('"t0" OR "t1" OR "t2" OR "t3"')
        total_blocks = sum(
            small_index.posting_list(f"t{i}").num_blocks for i in range(4)
        )
        assert 0 < result.work.blocks_fetched <= total_blocks

    def test_cores_used(self, small_index):
        # Four terms per core (Section IV-D): the timing model's rule,
        # which also sizes each query's trace.
        observer = RecordingObserver()
        boss = BossAccelerator(small_index, BossConfig(k=50),
                               observer=observer)
        model = BossTimingModel()
        five = " OR ".join(f'"t{i}"' for i in range(5))
        for expression, cores in (('"t0"', 1),
                                  ('"t0" OR "t1" OR "t2" OR "t3"', 1),
                                  (five, 2)):
            assert model.cores_used(boss.search(expression)) == cores
            assert observer.last_trace.cores_used == cores


class TestTraffic:
    def test_result_traffic_is_topk_only(self, boss):
        """BOSS's headline property: only the top-k crosses the link."""
        result = boss.search('"t0" OR "t1"')
        expected = 8 * len(result.hits)
        assert result.interconnect_bytes == expected
        assert result.traffic.bytes_for(AccessClass.ST_RESULT) == expected

    def test_no_intermediate_traffic(self, boss):
        """Pipelined multi-term execution never spills intermediates."""
        for expr in TABLE_II:
            traffic = boss.search(expr).traffic
            assert traffic.bytes_for(AccessClass.LD_INTER) == 0
            assert traffic.bytes_for(AccessClass.ST_INTER) == 0

    def test_list_loads_are_sequential(self, boss):
        result = boss.search('"t0" AND "t2"')
        random_list_bytes = result.traffic.bytes_for(
            AccessClass.LD_LIST, AccessPattern.RANDOM
        )
        assert random_list_bytes == 0

    def test_score_loads_track_evaluations(self, boss):
        result = boss.search('"t4" OR "t8"')
        assert result.traffic.bytes_for(AccessClass.LD_SCORE) == (
            8 * result.work.docs_evaluated
        )

    def test_et_reduces_traffic(self, small_index):
        full = BossAccelerator(small_index, BossConfig(k=5))
        exhaustive = BossAccelerator(small_index,
                                     BossConfig(k=5).exhaustive())
        expr = '"t2" OR "t5"'
        assert (
            full.search(expr).traffic.total_bytes
            <= exhaustive.search(expr).traffic.total_bytes
        )


class TestQueryTypeProperty:
    def test_query_type_annotation(self, boss):
        assert boss.search('"t0"').query_type == "Q1"
        assert boss.search('"t0" AND "t1"').query_type == "Q2"
        assert boss.search(
            '"t0" AND ("t1" OR "t2" OR "t3")'
        ).query_type == "Q6"
