"""Union module tests: WAND + block-max ET safety and effectiveness."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cursor import SKIP_ET, ListCursor
from repro.core.topk import TopKQueue
from repro.core.union import run_union
from repro.index import IndexBuilder
from repro.scm.traffic import TrafficCounter
from repro.sim.metrics import WorkCounters


def _build_index(term_postings, num_docs):
    builder = IndexBuilder(schemes=["BP"])
    builder.declare_documents([25] * num_docs)
    for term, postings in term_postings.items():
        builder.add_postings(term, *zip(*postings))
    return builder.build()


def _run(index, terms, k, et_block=True, et_wand=True):
    work = WorkCounters()
    traffic = TrafficCounter()
    topk = TopKQueue(k)
    cursors = [
        ListCursor(index.posting_list(t), work, traffic, skip_class=SKIP_ET)
        for t in terms
    ]
    run_union(cursors, index.scorer, topk, work,
              et_block=et_block, et_wand=et_wand)
    return topk.results(), work


def _oracle(index, terms, k):
    scorer = index.scorer
    scores = {}
    for term in terms:
        posting_list = index.posting_list(term)
        for p in posting_list.decode_all():
            scores[p.doc_id] = scores.get(p.doc_id, 0.0) + scorer.term_score(
                posting_list.idf, p.tf, p.doc_id
            )
    queue = TopKQueue(k)
    for doc in sorted(scores):
        queue.offer(doc, scores[doc])
    return queue.results()


def _random_postings(rng, num_docs, df, max_tf=12):
    doc_ids = sorted(rng.sample(range(num_docs), df))
    return [(d, rng.randrange(1, max_tf)) for d in doc_ids]


class TestCorrectness:
    @pytest.mark.parametrize("et_block,et_wand", [
        (True, True), (True, False), (False, True), (False, False),
    ])
    def test_all_et_modes_match_oracle(self, et_block, et_wand):
        rng = random.Random(17)
        num_docs = 3000
        postings = {
            f"w{i}": _random_postings(rng, num_docs, rng.randrange(50, 900))
            for i in range(4)
        }
        index = _build_index(postings, num_docs)
        terms = list(postings)
        got, _ = _run(index, terms, 20, et_block, et_wand)
        want = _oracle(index, terms, 20)
        assert [(d, round(s, 9)) for d, s in got] == [
            (d, round(s, 9)) for d, s in want
        ]

    def test_single_term_union(self):
        rng = random.Random(3)
        postings = {"solo": _random_postings(rng, 1000, 400)}
        index = _build_index(postings, 1000)
        got, _ = _run(index, ["solo"], 10)
        assert got == _oracle(index, ["solo"], 10)

    def test_disjoint_lists(self):
        postings = {
            "a": [(d, 2) for d in range(0, 100)],
            "b": [(d, 2) for d in range(500, 600)],
        }
        index = _build_index(postings, 700)
        got, _ = _run(index, ["a", "b"], 15)
        assert got == _oracle(index, ["a", "b"], 15)

    def test_identical_lists_double_score(self):
        postings = {
            "x": [(d, 1) for d in range(50)],
            "y": [(d, 1) for d in range(50)],
        }
        index = _build_index(postings, 60)
        got, _ = _run(index, ["x", "y"], 5)
        assert got == _oracle(index, ["x", "y"], 5)

    def test_k_larger_than_union(self):
        postings = {"a": [(1, 1), (5, 2)], "b": [(5, 1), (9, 3)]}
        index = _build_index(postings, 20)
        got, _ = _run(index, ["a", "b"], 100)
        assert len(got) == 3  # docs 1, 5, 9


class TestEffectiveness:
    def test_et_skips_work_on_skewed_lists(self):
        """A few hot blocks should let ET skip most of a long tail."""
        # Hot head: high tf; long cold tail: tf=1.
        postings = {
            "hot": (
                [(d, 40) for d in range(40)]
                + [(d, 1) for d in range(100, 4000)]
            ),
        }
        index = _build_index(postings, 4100)
        _, work_et = _run(index, ["hot"], 10, et_block=True, et_wand=True)
        _, work_ex = _run(index, ["hot"], 10, et_block=False, et_wand=False)
        assert work_et.docs_evaluated < work_ex.docs_evaluated
        assert work_et.blocks_fetched < work_ex.blocks_fetched
        assert work_et.blocks_skipped_et > 0

    def test_exhaustive_mode_evaluates_everything(self):
        rng = random.Random(5)
        postings = {
            "a": _random_postings(rng, 2000, 500),
            "b": _random_postings(rng, 2000, 700),
        }
        index = _build_index(postings, 2000)
        _, work = _run(index, ["a", "b"], 5, et_block=False, et_wand=False)
        union_size = len(
            {d for ps in postings.values() for d, _ in ps}
        )
        assert work.docs_evaluated == union_size

    def test_wand_terminates_early_when_cutoff_unreachable(self):
        # One strong list fills the top-k; a weak list alone cannot beat
        # the cutoff, so WAND must stop before evaluating its tail.
        postings = {
            "strong": [(d, 50) for d in range(20)],
            "weak": [(d, 1) for d in range(1000, 3000)],
        }
        index = _build_index(postings, 3100)
        _, work = _run(index, ["strong", "weak"], 10)
        weak_df = 2000
        assert work.docs_evaluated < 20 + weak_df


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_terms=st.integers(min_value=1, max_value=4),
    k=st.sampled_from([1, 5, 17]),
)
def test_property_union_equals_oracle(seed, num_terms, k):
    """ET-enabled union always returns the exhaustive top-k."""
    rng = random.Random(seed)
    num_docs = rng.randrange(200, 1500)
    postings = {}
    for i in range(num_terms):
        df = rng.randrange(1, max(2, num_docs // 2))
        postings[f"w{i}"] = _random_postings(rng, num_docs, df)
    index = _build_index(postings, num_docs)
    terms = list(postings)
    got, _ = _run(index, terms, k)
    want = _oracle(index, terms, k)
    assert [(d, round(s, 9)) for d, s in got] == [
        (d, round(s, 9)) for d, s in want
    ]
