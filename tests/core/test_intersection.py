"""Intersection module tests: SvS correctness and block-skip accounting."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import list_codecs
from repro.core.cursor import SKIP_OVERLAP, ListCursor
from repro.core.groups import GroupCursor
from repro.core.intersection import run_grouped_intersection
from repro.errors import SimulationError
from repro.index import IndexBuilder
from repro.index.blocks import BLOCK_SIZE
from repro.scm.traffic import TrafficCounter
from repro.sim.metrics import WorkCounters


def _build_index(term_postings, num_docs):
    builder = IndexBuilder(schemes=["BP"])
    builder.declare_documents([25] * num_docs)
    for term, postings in term_postings.items():
        builder.add_postings(term, postings)
    return builder.build()


def _cursors(index, terms):
    work = WorkCounters()
    traffic = TrafficCounter()
    cursors = [
        ListCursor(index.posting_list(t), work, traffic,
                   skip_class=SKIP_OVERLAP)
        for t in terms
    ]
    return cursors, work, traffic


def _intersect(index, terms):
    """An AND of terms: one single-member group per term."""
    cursors, work, traffic = _cursors(index, terms)
    groups = [GroupCursor([cursor], work) for cursor in cursors]
    matches = run_grouped_intersection(groups, work)
    return matches, work, traffic


class TestPairwise:
    def test_basic_overlap(self):
        postings = {
            "a": [(1, 1), (3, 2), (7, 1), (9, 4)],
            "b": [(3, 1), (8, 2), (9, 1)],
        }
        index = _build_index(postings, 20)
        matches, _, _ = _intersect(index, ["a", "b"])
        assert [m[0] for m in matches] == [3, 9]
        assert matches[0][1] == {"a": 2, "b": 1}

    def test_empty_intersection(self):
        postings = {"a": [(1, 1), (2, 1)], "b": [(10, 1), (11, 1)]}
        index = _build_index(postings, 20)
        matches, _, _ = _intersect(index, ["a", "b"])
        assert matches == []

    def test_identical_lists(self):
        postings = {
            "a": [(d, 1) for d in range(0, 50, 2)],
            "b": [(d, 1) for d in range(0, 50, 2)],
        }
        index = _build_index(postings, 60)
        matches, _, _ = _intersect(index, ["a", "b"])
        assert [m[0] for m in matches] == list(range(0, 50, 2))

    def test_no_terms_rejected(self):
        with pytest.raises(SimulationError):
            _intersect(_build_index({"a": [(1, 1)]}, 5), [])

    def test_single_term_drains(self):
        postings = {"a": [(2, 3), (4, 1)]}
        index = _build_index(postings, 10)
        matches, _, _ = _intersect(index, ["a"])
        assert matches == [(2, {"a": 3}), (4, {"a": 1})]

    def test_block_skipping_on_disjoint_ranges(self):
        """Blocks of 'wide' far from 'narrow' must never be fetched."""
        wide = [(d, 1) for d in range(10 * BLOCK_SIZE)]
        narrow = [(5, 1), (9 * BLOCK_SIZE + 3, 1)]
        index = _build_index({"wide": wide, "narrow": narrow},
                             10 * BLOCK_SIZE + 10)
        matches, work, _ = _intersect(index, ["wide", "narrow"])
        assert [m[0] for m in matches] == [5, 9 * BLOCK_SIZE + 3]
        # Only the two blocks of 'wide' containing the narrow docs are
        # decoded; the eight between are skipped by the overlap check.
        assert work.blocks_skipped_overlap >= 8
        assert work.blocks_fetched <= 3


class TestMultiTerm:
    def test_three_term_iterative(self):
        postings = {
            "a": [(d, 1) for d in range(0, 300, 2)],
            "b": [(d, 1) for d in range(0, 300, 3)],
            "c": [(d, 1) for d in range(0, 300, 5)],
        }
        index = _build_index(postings, 400)
        matches, work, _ = _intersect(index, ["a", "b", "c"])
        assert [m[0] for m in matches] == list(range(0, 300, 30))
        assert all(set(m[1]) == {"a", "b", "c"} for m in matches)
        assert work.docs_matched == 10

    def test_svs_order_is_smallest_first(self):
        # The driver must be the smallest list regardless of call order.
        postings = {
            "big": [(d, 1) for d in range(1000)],
            "small": [(500, 1)],
        }
        index = _build_index(postings, 1100)
        matches, work, _ = _intersect(index, ["big", "small"])
        assert [m[0] for m in matches] == [500]
        # Driving from 'small' means most 'big' blocks are never decoded.
        assert work.blocks_fetched <= 2

    def test_four_terms_empty_early_exit(self):
        postings = {
            "a": [(1, 1)],
            "b": [(2, 1)],
            "c": [(d, 1) for d in range(500)],
            "d": [(d, 1) for d in range(500)],
        }
        index = _build_index(postings, 600)
        matches, work, _ = _intersect(index, ["a", "b", "c", "d"])
        assert matches == []


class TestGrouped:
    def test_and_of_or_group(self):
        postings = {
            "a": [(d, 1) for d in range(0, 100, 2)],
            "b": [(d, 1) for d in range(0, 100, 3)],
            "c": [(d, 1) for d in range(0, 100, 7)],
        }
        index = _build_index(postings, 120)
        work = WorkCounters()
        traffic = TrafficCounter()

        def cursor(term):
            return ListCursor(index.posting_list(term), work, traffic,
                              skip_class=SKIP_OVERLAP)

        groups = [
            GroupCursor([cursor("a")], work),
            GroupCursor([cursor("b"), cursor("c")], work),
        ]
        matches = run_grouped_intersection(groups, work)
        expected = sorted(
            set(range(0, 100, 2)) & (set(range(0, 100, 3))
                                     | set(range(0, 100, 7)))
        )
        assert [m[0] for m in matches] == expected
        # Every member term present at a match contributes its tf.
        for doc, tfs in matches:
            assert "a" in tfs
            assert ("b" in tfs) or ("c" in tfs)

    def test_empty_groups_rejected(self):
        with pytest.raises(SimulationError):
            run_grouped_intersection([], WorkCounters())


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       num_terms=st.integers(min_value=2, max_value=4))
def test_property_intersection_equals_set_ops(seed, num_terms):
    rng = random.Random(seed)
    num_docs = rng.randrange(100, 1200)
    postings = {}
    doc_sets = {}
    for i in range(num_terms):
        df = rng.randrange(1, num_docs)
        doc_ids = sorted(rng.sample(range(num_docs), df))
        postings[f"w{i}"] = [(d, rng.randrange(1, 9)) for d in doc_ids]
        doc_sets[f"w{i}"] = set(doc_ids)
    index = _build_index(postings, num_docs)
    matches, _, _ = _intersect(index, list(postings))
    expected = set.intersection(*doc_sets.values())
    assert [m[0] for m in matches] == sorted(expected)
    for _doc, tfs in matches:
        assert set(tfs) == set(postings)


# ----------------------------------------------------------------------
# The production loops (repro.core.columnar) against the reference
# executor: hits, work counters, per-bucket traffic and fetch order.
# ----------------------------------------------------------------------

def _check(index, expressions, k=10):
    from repro.core import BossAccelerator, BossConfig
    from tests.test_fastpath_equivalence import _assert_pair_identical

    production = BossAccelerator(index, BossConfig(k=k))
    reference = BossAccelerator(index, BossConfig(k=k),
                                executor="reference")
    for _ in range(2):  # the second pass reads the warm decoded cache
        for expression in expressions:
            _assert_pair_identical(production, reference, expression,
                                   (expression, k))
    return production


def _postings(doc_ids, rng=None):
    return [(d, 1 if rng is None else rng.randrange(1, 6))
            for d in doc_ids]


class TestProductionShapes:
    def test_duplicate_term(self):
        index = _build_index(
            {"a": _postings(range(0, 900, 3)),
             "b": _postings(range(0, 900, 7))}, 900)
        _check(index, ['"a" AND "a"', '"a" AND "a" AND "b"',
                       '"a" AND ("a" OR "b")'])

    def test_other_list_exhausts_before_the_driver(self):
        # "short" is the SvS driver by df, but the denser "early" ends
        # long before it: the run stops at the first candidate past it.
        index = _build_index(
            {"short": _postings(range(5, 2000, 11)),
             "early": _postings(range(0, 400))}, 2000)
        assert (index.posting_list("short").document_frequency
                < index.posting_list("early").document_frequency)
        engine = _check(index, ['"short" AND "early"'])
        result = engine.search('"short" AND "early"')
        assert result.work.docs_matched == len(range(5, 400, 11))
        # The driver's later blocks were never fetched.
        assert result.work.blocks_fetched < (
            index.posting_list("short").num_blocks
            + index.posting_list("early").num_blocks)

    def test_target_on_a_blocks_first_doc_defers_the_fetch(self):
        # Every candidate is the first docID of one of "wide"'s blocks:
        # the metadata answers the membership test, so a payload is
        # fetched only to read the tf of a match.
        wide = list(range(0, 4 * BLOCK_SIZE * 2, 2))
        firsts = wide[::BLOCK_SIZE]
        probe = sorted(firsts[1:] + [wide[-1] + 5])
        index = _build_index(
            {"wide": _postings(wide), "probe": _postings(probe)},
            wide[-1] + 10)
        engine = _check(index, ['"probe" AND "wide"'])
        result = engine.search('"probe" AND "wide"')
        assert result.work.docs_matched == len(firsts) - 1
        assert result.work.blocks_skipped_overlap >= 1

    def test_a_list_never_reached_is_never_touched(self):
        # "even" and "odd" share nothing, so no candidate ever reaches
        # the third list: not even its first metadata record is read.
        index = _build_index(
            {"even": _postings(range(0, 1200, 2)),
             "odd": _postings(range(1, 1200, 2)),
             "all": _postings(range(0, 1400))}, 1400)
        engine = _check(index, ['"even" AND "odd" AND "all"'])
        result = engine.search('"even" AND "odd" AND "all"')
        assert result.work.docs_matched == 0
        assert result.work.metadata_inspected == (
            index.posting_list("even").num_blocks
            + index.posting_list("odd").num_blocks)

    def test_equal_df_keeps_query_order(self):
        rng = random.Random(4)
        lists = {
            name: _postings(sorted(rng.sample(range(1500), 400)), rng)
            for name in ("x", "y", "z")
        }
        index = _build_index(lists, 1500)
        _check(index, ['"x" AND "y"', '"y" AND "x"', '"z" AND "x" AND "y"',
                       '"y" AND ("z" OR "x")', '("z" OR "x") AND "y"'])

    def test_or_group_drives_when_its_df_sum_is_smaller(self):
        rng = random.Random(6)
        index = _build_index(
            {"big": _postings(sorted(rng.sample(range(3000), 1500)), rng),
             "g1": _postings(sorted(rng.sample(range(3000), 150)), rng),
             "g2": _postings(sorted(rng.sample(range(3000), 130)), rng),
             "g3": _postings(sorted(rng.sample(range(3000), 20)), rng)},
            3000)
        _check(index, ['"big" AND ("g1" OR "g2" OR "g3")',
                       '("g1" OR "g2") AND "big"',
                       '("g1" OR "g3") AND ("g2" OR "big")'])

    def test_four_terms_straddling_the_leader_run_gate(self):
        from repro.core.columnar import _LEADER_RUN_MIN_DF as gate

        rng = random.Random(8)
        num_docs = 6 * gate
        dfs = {"below": gate - 1, "at": gate, "above": gate + 1,
               "dense": 5 * gate}
        index = _build_index(
            {term: _postings(sorted(rng.sample(range(num_docs), df)), rng)
             for term, df in dfs.items()}, num_docs)
        _check(index, ['"below" AND "at" AND "above" AND "dense"',
                       '"dense" AND "above" AND "at" AND "below"',
                       '"dense" AND "at"', '"dense" AND "below"'])

    @pytest.mark.parametrize("k", [1, 1000])
    def test_k_of_one_and_fewer_matches_than_k(self, k):
        rng = random.Random(10)
        index = _build_index(
            {"p": _postings(sorted(rng.sample(range(2000), 600)), rng),
             "q": _postings(sorted(rng.sample(range(2000), 500)), rng),
             "r": _postings(sorted(rng.sample(range(2000), 300)), rng)},
            2000)
        # The last one is the general rewrite with a lone-term branch.
        expressions = ['"p" AND "q"', '"p" AND "q" AND "r"',
                       '"p" AND ("q" OR "r")', '("p" AND "q") OR "r"']
        engine = _check(index, expressions, k=k)
        for expression in expressions:
            result = engine.search(expression, k=k)
            assert 0 < result.work.docs_evaluated < 1000
            assert len(result.hits) == min(k, result.work.docs_evaluated)


def _random_expression(rng, terms):
    """AND of terms and OR-groups; one time in three an OR-group holds a
    nested conjunction, which routes the query through the general
    (union-of-intersections) rewrite."""
    def quoted(term):
        return f'"{term}"'

    def operand(nested):
        if rng.random() < 0.5:
            return quoted(rng.choice(terms))
        members = [quoted(t) for t in rng.sample(terms, rng.randrange(2, 4))]
        if nested:
            members[-1] = "(" + " AND ".join(
                quoted(t) for t in rng.sample(terms, 2)) + ")"
        return "(" + " OR ".join(members) + ")"

    nested_at = rng.randrange(3) if rng.random() < 0.34 else None
    return " AND ".join(operand(i == nested_at)
                        for i in range(rng.randrange(2, 5)))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       scheme=st.sampled_from(list_codecs()),
       k=st.sampled_from([1, 10, 1000]))
def test_property_production_equals_reference(seed, scheme, k):
    """Random multi-block indexes, random AND-of-(term | OR-group) and
    nested expressions: production == reference on hits, work, traffic
    and fetch order."""
    rng = random.Random(seed)
    num_docs = rng.randrange(8 * BLOCK_SIZE, 16 * BLOCK_SIZE)
    builder = IndexBuilder(schemes=[scheme])
    builder.declare_documents(
        [rng.randrange(5, 60) for _ in range(num_docs)])
    terms = [f"w{i}" for i in range(5)]
    for term in terms:
        df = rng.randrange(2 * BLOCK_SIZE + 1, 5 * BLOCK_SIZE)  # >= 3 blocks
        builder.add_postings(term, _postings(
            sorted(rng.sample(range(num_docs), df)), rng))
    index = builder.build()
    assert all(index.posting_list(t).num_blocks >= 3 for t in terms)
    _check(index, [_random_expression(rng, terms) for _ in range(3)], k=k)
