"""Shared fixtures: deterministic small corpora and a brute-force oracle."""

import random
from itertools import accumulate

import pytest

from repro.core.engine import BossAccelerator, recording_fetches
from repro.core.query import AndNode, OrNode, TermNode, flatten
from repro.core.topk import TopKQueue
from repro.index import IndexBuilder
from repro.index.index import (
    BlockColumns,
    CompressedPostingList,
    InvertedIndex,
)
from repro.observability import observing
from repro.scm.traffic import AccessClass, AccessPattern


def build_random_index(num_docs=1500, vocab_size=40, seed=42,
                       schemes=None) -> InvertedIndex:
    """A small, skewed random corpus (exponential term popularity)."""
    rng = random.Random(seed)
    vocab = [f"t{i}" for i in range(vocab_size)]
    builder = IndexBuilder(schemes=schemes)
    for _ in range(num_docs):
        length = rng.randrange(5, 40)
        doc = [
            vocab[min(vocab_size - 1, int(rng.expovariate(0.12)))]
            for _ in range(length)
        ]
        builder.add_document(doc)
    return builder.build()


def reseat(posting_list, blocks) -> None:
    """Rebuild ``posting_list``'s columns, in place, from ``blocks``:
    how a test swaps a corrupted block into a built list. Each payload's
    offset is where it lands in the concatenated payload."""
    metas = [block.metadata for block in blocks]
    parts = [payload for block in blocks
             for payload in (block.doc_payload, block.tf_payload)]
    ends = list(accumulate(map(len, parts)))
    columns = BlockColumns(
        [m.first_doc_id for m in metas], [m.last_doc_id for m in metas],
        [m.max_term_score for m in metas], [0, *ends[1:-1:2]][:len(metas)],
        [m.count for m in metas], [m.bit_width for m in metas],
        [m.exception_offset for m in metas], ends[0::2])
    fresh = CompressedPostingList(
        posting_list.term, posting_list.scheme,
        posting_list.document_frequency, posting_list.idf,
        posting_list.max_term_score, posting_list.region, columns,
        b"".join(parts))
    vars(posting_list).update(vars(fresh))


@pytest.fixture(scope="session")
def small_index() -> InvertedIndex:
    return build_random_index()


def brute_force_topk(index: InvertedIndex, node, k: int):
    """Oracle: decompress everything, evaluate the boolean condition per
    document, score every query term present, rank with the same top-k
    semantics as the hardware queue."""
    node = flatten(node)

    def docs_with(term):
        return {p.doc_id: p.tf for p in index.posting_list(term).decode_all()}

    per_term = {t: docs_with(t) for t in set(node.terms())}

    def matching(n):
        if isinstance(n, TermNode):
            return set(per_term[n.term])
        child_sets = [matching(c) for c in n.children]
        if isinstance(n, AndNode):
            out = child_sets[0]
            for s in child_sets[1:]:
                out = out & s
            return out
        out = set()
        for s in child_sets:
            out |= s
        return out

    scorer = index.scorer
    queue = TopKQueue(k)
    for doc in sorted(matching(node)):
        score = sum(
            scorer.term_score(index.posting_list(t).idf, tf_map[doc], doc)
            for t, tf_map in per_term.items()
            if doc in tf_map
        )
        queue.offer(doc, score)
    return queue.results()


class ObservedAccelerator(BossAccelerator):
    """An engine whose every query runs in its own recorder's scope, so
    two engines compared query by query keep separate traces."""

    def __init__(self, recorder, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.recorder = recorder

    def search(self, *args, **kwargs):
        with observing(self.recorder):
            return super().search(*args, **kwargs)


def hits_as_pairs(result, digits=9):
    """Normalize engine hits for comparison against the oracle."""
    return [(h.doc_id, round(h.score, digits)) for h in result.hits]


def oracle_as_pairs(oracle, digits=9):
    return [(d, round(s, digits)) for d, s in oracle]


def _assert_results_identical(fast, reference, context):
    assert hits_as_pairs(fast, digits=17) == \
        hits_as_pairs(reference, digits=17), context
    assert fast.work == reference.work, context
    for cls in AccessClass:
        for pattern in AccessPattern:
            assert fast.traffic.bytes_for(cls, pattern) == \
                reference.traffic.bytes_for(cls, pattern), \
                (context, cls, pattern)
            assert fast.traffic.accesses_for(cls, pattern) == \
                reference.traffic.accesses_for(cls, pattern), \
                (context, cls, pattern)
    assert fast.interconnect_bytes == reference.interconnect_bytes, context


def _search_logged(engine, expression, **kwargs):
    """``engine.search`` plus the payload fetches it made, in order."""
    with recording_fetches() as fetches:
        result = engine.search(expression, **kwargs)
    return result, fetches.get(engine, [])


def _assert_pair_identical(engine, reference, expression, context,
                           **kwargs):
    """Both engines run ``expression``: identical results *and* the
    same payload fetches in the same order — the records the cache
    simulator and the I/O planner replay, one by one (term, block,
    bytes, observed pattern)."""
    result, log = _search_logged(engine, expression, **kwargs)
    expected, expected_log = _search_logged(reference, expression,
                                            **kwargs)
    _assert_results_identical(result, expected, context)
    assert len(log) == len(expected_log), context
    for position, (record, expected_record) in enumerate(
            zip(log, expected_log)):
        assert record == expected_record, (context, position)
    assert len(log) == result.work.blocks_fetched, context
