"""The merge-equivalence oracle: live index == monolithic rebuild.

The defining correctness property of the live index: after *any*
interleaving of adds, deletes, seals, and merges, a query against the
:class:`~repro.live.SegmentedIndex` returns exactly what a from-scratch
monolithic build of the surviving documents returns — same documents,
same scores (to the shared 9-digit comparison), same order. The compact
docIDs of the rebuild map to surviving global docIDs in ascending
order.

Runs seeded-random op logs (the shared :mod:`tests.live.oplog`
schedules, also driven by the crash-recovery oracle) against every
paper codec plus the hybrid selector, with result checks at several
intermediate points, so fresh buffers, stale segments, tombstones, and
merge outputs all get exercised mid-stream rather than only at
quiescence.
"""

import random

import pytest

from repro.index import IndexBuilder
from repro.index.validate import validate_segmented
from repro.live import LiveIndexWriter, MergePolicy

from tests.live.oplog import (
    SCHEME_SETS,
    OpLogRunner,
    check_equivalence,
    generate_ops,
    random_doc,
)


def run_interleaving(seed, schemes, num_ops=160):
    rng = random.Random(f"diff:{seed}")
    writer = LiveIndexWriter(schemes=schemes, buffer_docs=12,
                             policy=MergePolicy(fanout=3))
    ops = generate_ops(seed, num_ops, p_add=0.62, p_delete=0.23,
                       p_seal=0.15)
    runner = OpLogRunner()
    checks = []

    def mid_stream_check(applied):
        if applied % 40 == 0 and len(runner.live_ids) >= 2:
            check_equivalence(writer, runner.docs_by_id, schemes, rng)
            checks.append(applied)

    runner.apply(writer, ops, on_op=mid_stream_check)
    report = validate_segmented(writer.index, check_scores=True)
    assert report.ok, report.errors[:5]
    if len(runner.live_ids) >= 2:
        check_equivalence(writer, runner.docs_by_id, schemes, rng)
        checks.append(len(ops))
    assert len(checks) >= 2
    return writer


@pytest.mark.parametrize("schemes", SCHEME_SETS,
                         ids=lambda s: "hybrid" if s is None else s[0])
def test_interleavings_match_monolithic_rebuild(schemes):
    for seed in (1, 2):
        run_interleaving(seed, schemes)


def test_deep_interleaving_with_merges_hybrid():
    """A longer run that provably reaches tier-1+ merges."""
    writer = run_interleaving(99, None, num_ops=400)
    tiers = {segment.tier for segment in writer.index.segments}
    assert len(writer.scheduler.records) >= 3
    assert max(tiers, default=0) >= 1


def test_full_compaction_recovers_monolithic_bytes():
    """Append-only + full compaction == byte-identical fresh build."""
    rng = random.Random("compact")
    writer = LiveIndexWriter(buffer_docs=16)
    docs_by_id = {}
    for _ in range(100):
        tokens = random_doc(rng)
        docs_by_id[writer.add_document(tokens)] = tokens
    writer.flush()
    writer.scheduler.compact_all()
    assert writer.index.num_segments == 1
    segment = writer.index.segments[0]

    builder = IndexBuilder()
    for doc_id in sorted(docs_by_id):
        builder.add_document(docs_by_id[doc_id])
    mono = builder.build()

    assert sorted(segment.index.terms) == sorted(mono.terms)
    for term in mono.terms:
        live_list = segment.index.posting_list(term)
        mono_list = mono.posting_list(term)
        assert live_list.scheme == mono_list.scheme
        assert len(live_list.blocks) == len(mono_list.blocks)
        for ours, theirs in zip(live_list.blocks, mono_list.blocks):
            assert ours.doc_payload == theirs.doc_payload
            assert ours.tf_payload == theirs.tf_payload
            assert (ours.metadata.max_term_score
                    == theirs.metadata.max_term_score)
