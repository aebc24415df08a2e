"""White-box tests for IIU's execution primitives."""

import pytest

from repro.baselines.iiu import IIUAccelerator, IIUConfig
from repro.index import IndexBuilder
from repro.scm.traffic import AccessClass, AccessPattern, TrafficCounter
from repro.sim.metrics import WorkCounters


def _index(postings_by_term, num_docs):
    builder = IndexBuilder(schemes=["BP"])
    builder.declare_documents([20] * num_docs)
    for term, postings in postings_by_term.items():
        builder.add_postings(term, *zip(*postings))
    return builder.build()


@pytest.fixture()
def iiu():
    index = _index(
        {
            "big": [(d, 1) for d in range(0, 1000, 2)],
            "mid": [(d, 1) for d in range(0, 1000, 5)],
            "tiny": [(7, 1), (40, 2), (500, 1)],
        },
        1100,
    )
    return IIUAccelerator(index, IIUConfig(k=10))


class TestLoadFullList:
    def test_all_blocks_charged_sequentially(self, iiu):
        work, traffic = WorkCounters(), TrafficCounter()
        matches = iiu._load_full_list("big", work, traffic)
        posting_list = iiu.index.posting_list("big")
        assert len(matches) == posting_list.document_frequency
        assert work.blocks_fetched == posting_list.num_blocks
        assert traffic.bytes_for(
            AccessClass.LD_LIST, AccessPattern.SEQUENTIAL
        ) == posting_list.compressed_bytes + posting_list.metadata_bytes


class TestProbeMembership:
    def test_filter_mode(self, iiu):
        work, traffic = WorkCounters(), TrafficCounter()
        candidates = iiu._load_full_list("tiny", work, traffic)
        survivors = iiu._probe_membership(candidates, "mid", work, traffic)
        # tiny ∩ mid: docs divisible by 5 -> 40 and 500.
        assert [doc for doc, _tfs in survivors] == [40, 500]
        assert work.probe_reads > 0
        assert traffic.bytes_for(
            AccessClass.LD_LIST, AccessPattern.RANDOM
        ) > 0

    def test_keep_misses_annotates(self, iiu):
        work, traffic = WorkCounters(), TrafficCounter()
        candidates = iiu._load_full_list("tiny", work, traffic)
        annotated = iiu._probe_membership(candidates, "mid", work, traffic,
                                          keep_misses=True)
        assert len(annotated) == len(candidates)
        tf_maps = {doc: tfs for doc, tfs in annotated}
        assert "mid" in tf_maps[40]
        assert "mid" not in tf_maps[7]

    def test_target_blocks_memoized(self, iiu):
        """Probing many candidates in one block decodes it once."""
        work, traffic = WorkCounters(), TrafficCounter()
        candidates = [(d, {}) for d in range(0, 100, 2)]
        iiu._probe_membership(candidates, "big", work, traffic)
        # Docs 0..98 live in the first block of "big".
        assert work.blocks_fetched == 1


class TestExhaustiveUnionInternals:
    def test_merges_tf_maps(self, iiu):
        work, traffic = WorkCounters(), TrafficCounter()
        merged = iiu._exhaustive_union(["tiny", "mid"], work, traffic)
        by_doc = dict(merged)
        assert by_doc[40] == {"tiny": 2, "mid": 1}
        assert by_doc[7] == {"tiny": 1}

    def test_merge_ops_equal_total_postings(self, iiu):
        work, traffic = WorkCounters(), TrafficCounter()
        iiu._exhaustive_union(["tiny", "mid"], work, traffic)
        total = (
            iiu.index.posting_list("tiny").document_frequency
            + iiu.index.posting_list("mid").document_frequency
        )
        assert work.merge_ops == total


class TestIterativeIntersection:
    def test_two_terms_no_spill(self, iiu):
        work, traffic = WorkCounters(), TrafficCounter()
        iiu._iterative_intersection(["tiny", "mid"], work, traffic)
        assert traffic.bytes_for(AccessClass.ST_INTER) == 0
        assert work.intermediate_passes == 0

    def test_three_terms_spill_once(self, iiu):
        work, traffic = WorkCounters(), TrafficCounter()
        matches = iiu._iterative_intersection(["tiny", "mid", "big"],
                                              work, traffic)
        assert work.intermediate_passes == 1
        spilled = traffic.bytes_for(AccessClass.ST_INTER)
        reloaded = traffic.bytes_for(AccessClass.LD_INTER)
        assert spilled == reloaded > 0
        # tiny ∩ mid ∩ big: divisible by 10 -> 40 and 500.
        assert [doc for doc, _tfs in matches] == [40, 500]

    def test_svs_order(self, iiu):
        """The smallest list drives regardless of argument order."""
        work, traffic = WorkCounters(), TrafficCounter()
        iiu._iterative_intersection(["big", "tiny"], work, traffic)
        tiny_blocks = iiu.index.posting_list("tiny").num_blocks
        # Driver "tiny" fully loaded sequentially; "big" only probed.
        seq = traffic.bytes_for(AccessClass.LD_LIST,
                                AccessPattern.SEQUENTIAL)
        tiny = iiu.index.posting_list("tiny")
        assert seq == tiny.compressed_bytes + tiny.metadata_bytes
        assert tiny_blocks == 1
