"""Unit tests for query parsing, normalization, and classification."""

import random

import pytest

from repro.baselines import IIUAccelerator, IIUConfig, LuceneConfig, LuceneEngine
from repro.cluster import SearchCluster, shard_documents
from repro.core import BossAccelerator, BossConfig
from repro.core.query import (
    AndNode,
    OrNode,
    TermNode,
    as_query,
    classify_query,
    flatten,
    parse_query,
    push_intersections_down,
)
from repro.errors import QueryError
from repro.index import IndexBuilder
from repro.live import SegmentedIndex


class TestParser:
    def test_single_term(self):
        assert parse_query('"cat"') == TermNode("cat")

    def test_two_term_and(self):
        node = parse_query('"a" AND "b"')
        assert node == AndNode((TermNode("a"), TermNode("b")))

    def test_two_term_or(self):
        node = parse_query('"a" OR "b"')
        assert node == OrNode((TermNode("a"), TermNode("b")))

    def test_and_binds_tighter_than_or(self):
        node = parse_query('"a" AND "b" OR "c"')
        assert isinstance(node, OrNode)
        assert node.children[0] == AndNode((TermNode("a"), TermNode("b")))
        assert node.children[1] == TermNode("c")

    def test_parentheses_override_precedence(self):
        node = parse_query('"a" AND ("b" OR "c")')
        assert isinstance(node, AndNode)
        assert node.children[1] == OrNode((TermNode("b"), TermNode("c")))

    def test_four_way_chain(self):
        node = parse_query('"a" AND "b" AND "c" AND "d"')
        assert isinstance(node, AndNode)
        assert len(node.children) == 4

    def test_nested_parentheses(self):
        node = parse_query('(("a" OR "b") AND "c")')
        assert isinstance(node, AndNode)

    def test_terms_with_spaces_inside_quotes(self):
        node = parse_query('"new york" OR "boston"')
        assert node.terms() == ["new york", "boston"]

    def test_empty_expression_rejected(self):
        with pytest.raises(QueryError):
            parse_query("")

    def test_unbalanced_parens_rejected(self):
        with pytest.raises(QueryError):
            parse_query('("a" AND "b"')

    def test_bare_word_rejected(self):
        with pytest.raises(QueryError):
            parse_query("cat")

    def test_trailing_operator_rejected(self):
        with pytest.raises(QueryError):
            parse_query('"a" AND')

    def test_trailing_tokens_rejected(self):
        with pytest.raises(QueryError):
            parse_query('"a" "b"')

    def test_str_round_trips_through_parser(self):
        for expr in ['"a"', '"a" AND "b"', '"a" AND ("b" OR "c")']:
            node = parse_query(expr)
            assert parse_query(str(node)) == node


class TestFlatten:
    def test_nested_ands_merge(self):
        node = AndNode((AndNode((TermNode("a"), TermNode("b"))),
                        TermNode("c")))
        flat = flatten(node)
        assert flat == AndNode((TermNode("a"), TermNode("b"), TermNode("c")))

    def test_nested_ors_merge(self):
        node = OrNode((TermNode("a"),
                       OrNode((TermNode("b"), TermNode("c")))))
        assert len(flatten(node).children) == 3

    def test_mixed_not_merged(self):
        node = AndNode((TermNode("a"),
                        OrNode((TermNode("b"), TermNode("c")))))
        flat = flatten(node)
        assert isinstance(flat, AndNode)
        assert isinstance(flat.children[1], OrNode)

    def test_single_child_collapses(self):
        assert flatten(AndNode((TermNode("a"),))) == TermNode("a")

    def test_repeated_siblings_drop_keeping_the_first(self):
        node = OrNode((TermNode("b"), TermNode("a"),
                       OrNode((TermNode("b"), TermNode("c")))))
        assert flatten(node) == OrNode(
            (TermNode("b"), TermNode("a"), TermNode("c")))


class TestNormalForm:
    def test_nested_and_flat_strings_are_one_tree(self):
        assert (parse_query('("a" OR "b") OR "c"')
                == parse_query('"a" OR "b" OR "c"'))

    def test_repeated_term_collapses(self):
        assert parse_query('"a" AND "a"') == TermNode("a")

    def test_a_string_equals_its_ast(self):
        expression = '("a" AND ("b" AND "c")) OR "d" OR "d"'
        ast = AndNode((TermNode("a"), AndNode((TermNode("b"),
                                               TermNode("c")))))
        ast = OrNode((OrNode((ast, TermNode("d"))), TermNode("d")))
        assert as_query(expression) == as_query(ast) == parse_query(
            expression)

    @pytest.mark.parametrize("expression", [
        '("t1" OR "t2") OR "t3"',
        '("t0" AND "t4") AND ("t2" AND "t6")',
        '("t1" OR ("t3" OR "t5")) AND "t0"',
    ])
    @pytest.mark.parametrize("make_engine", [
        lambda index: BossAccelerator(index, BossConfig(k=10)),
        lambda index: IIUAccelerator(index, IIUConfig(k=10)),
    ], ids=["boss", "iiu"])
    def test_a_string_runs_the_plan_of_its_ast(self, small_index,
                                               make_engine, expression):
        engine = make_engine(small_index)
        as_string = engine.search(expression)
        as_ast = engine.search(parse_query(expression))
        assert as_string.hits == as_ast.hits
        assert (as_string.traffic.total_bytes
                == as_ast.traffic.total_bytes)


DUPLICATED = '"t1" OR "t1" OR "t4"'
DEDUPLICATED = '"t1" OR "t4"'


def _documents(num_docs=600, vocab=20, seed=5):
    rng = random.Random(seed)
    words = [f"t{i}" for i in range(vocab)]
    return [
        [words[min(vocab - 1, int(rng.expovariate(0.2)))]
         for _ in range(rng.randrange(4, 24))]
        for _ in range(num_docs)
    ]


class TestDuplicatedQueryEverywhere:
    """A repeated term scores once on every engine and topology."""

    @pytest.fixture(scope="class")
    def documents(self):
        return _documents()

    @pytest.fixture(scope="class")
    def index(self, documents):
        builder = IndexBuilder()
        for tokens in documents:
            builder.add_document(tokens)
        return builder.build()

    @pytest.mark.parametrize("make_engine", [
        lambda index: BossAccelerator(index, BossConfig(k=20),
                                      executor="columnar"),
        lambda index: BossAccelerator(index, BossConfig(k=20),
                                      executor="fast"),
        lambda index: BossAccelerator(index, BossConfig(k=20),
                                      executor="reference"),
        lambda index: IIUAccelerator(index, IIUConfig(k=20)),
        lambda index: LuceneEngine(index, LuceneConfig(k=20)),
    ], ids=["columnar", "fast", "reference", "iiu", "lucene"])
    def test_engine(self, index, make_engine):
        engine = make_engine(index)
        assert (engine.search(DUPLICATED).hits
                == engine.search(DEDUPLICATED).hits)

    def test_cluster(self, documents):
        cluster = SearchCluster([
            BossAccelerator(index, BossConfig(k=20))
            for index in shard_documents(documents, num_shards=3).indexes
        ])
        assert (cluster.search(DUPLICATED, k=20).hits
                == cluster.search(DEDUPLICATED, k=20).hits)

    def test_segmented_index_with_a_buffer(self, documents):
        live = SegmentedIndex()
        for tokens in documents[:150]:
            live.add_document(tokens)
        live.seal()
        buffered = {live.add_document(tokens) for tokens in documents[150:200]}
        duplicated = live.search(DUPLICATED, k=200)
        assert buffered & {hit.doc_id for hit in duplicated.hits}
        assert duplicated.hits == live.search(DEDUPLICATED, k=200).hits

    def test_segmented_index_names_missing_terms_in_query_order(self):
        live = SegmentedIndex()
        live.add_document(["a", "b"])
        with pytest.raises(QueryError,
                           match=r"terms not in index: \['z', 'y'\]"):
            live.search('"z" OR "a" OR "y"')


class TestPushIntersectionsDown:
    def test_q6_shape(self):
        # A AND (B OR C) -> (A AND B) OR (A AND C), the paper's example.
        node = parse_query('"a" AND ("b" OR "c")')
        dnf = push_intersections_down(node)
        assert isinstance(dnf, OrNode)
        assert set(dnf.children) == {
            AndNode((TermNode("a"), TermNode("b"))),
            AndNode((TermNode("a"), TermNode("c"))),
        }

    def test_pure_and_unchanged(self):
        node = parse_query('"a" AND "b"')
        assert push_intersections_down(node) == node

    def test_pure_or_unchanged(self):
        node = parse_query('"a" OR "b" OR "c"')
        assert push_intersections_down(node) == flatten(node)

    def test_term_unchanged(self):
        assert push_intersections_down(TermNode("x")) == TermNode("x")

    def test_two_or_groups_distribute(self):
        node = parse_query('("a" OR "b") AND ("c" OR "d")')
        dnf = push_intersections_down(node)
        assert isinstance(dnf, OrNode)
        assert len(dnf.children) == 4


class TestClassify:
    @pytest.mark.parametrize("expr,expected", [
        ('"a"', "Q1"),
        ('"a" AND "b"', "Q2"),
        ('"a" OR "b"', "Q3"),
        ('"a" AND "b" AND "c" AND "d"', "Q4"),
        ('"a" OR "b" OR "c" OR "d"', "Q5"),
        ('"a" AND ("b" OR "c" OR "d")', "Q6"),
    ])
    def test_table_ii_types(self, expr, expected):
        assert classify_query(parse_query(expr)) == expected

    def test_three_term_and_is_mixed(self):
        assert classify_query(parse_query('"a" AND "b" AND "c"')) == "mixed"

    def test_or_of_and_is_mixed(self):
        assert classify_query(parse_query('("a" AND "b") OR "c"')) == "mixed"

    def test_terms_list_order(self):
        node = parse_query('"a" AND ("b" OR "c")')
        assert node.terms() == ["a", "b", "c"]
