"""Unit tests for the OR-group cursor (merged stream view)."""

import pytest

from repro.core.cursor import ListCursor
from repro.core.groups import GroupCursor
from repro.errors import SimulationError
from repro.index import IndexBuilder
from repro.scm.traffic import TrafficCounter
from repro.sim.metrics import WorkCounters


def _index(postings_by_term, num_docs):
    builder = IndexBuilder(schemes=["BP"])
    builder.declare_documents([20] * num_docs)
    for term, postings in postings_by_term.items():
        builder.add_postings(term, *zip(*postings))
    return builder.build()


def _group(index, terms):
    work = WorkCounters()
    traffic = TrafficCounter()
    members = [
        ListCursor(index.posting_list(t), work, traffic) for t in terms
    ]
    return GroupCursor(members, work), work


class TestMergedView:
    def test_current_doc_is_min(self):
        index = _index({"a": [(5, 1), (9, 1)], "b": [(2, 1), (7, 1)]}, 20)
        group, _ = _group(index, ["a", "b"])
        assert group.current_doc() == 2

    def test_step_consumes_min_only(self):
        index = _index({"a": [(5, 1)], "b": [(2, 1), (7, 1)]}, 20)
        group, _ = _group(index, ["a", "b"])
        group.step()
        assert group.current_doc() == 5

    def test_step_consumes_all_members_at_min(self):
        index = _index({"a": [(3, 1), (8, 1)], "b": [(3, 1), (9, 1)]}, 20)
        group, _ = _group(index, ["a", "b"])
        group.step()  # both members sat at 3
        assert group.current_doc() == 8

    def test_full_merge_order(self):
        index = _index({"a": [(1, 1), (4, 1)], "b": [(2, 1), (4, 1)]}, 10)
        group, _ = _group(index, ["a", "b"])
        seen = []
        while group.current_doc() is not None:
            seen.append(group.current_doc())
            group.step()
        assert seen == [1, 2, 4]

    def test_current_tfs_collects_members_at_head(self):
        index = _index({"a": [(4, 3)], "b": [(4, 5)], "c": [(9, 1)]}, 20)
        group, _ = _group(index, ["a", "b", "c"])
        assert group.current_tfs() == {"a": 3, "b": 5}

    def test_advance_to_moves_all_members(self):
        index = _index(
            {"a": [(1, 1), (50, 1)], "b": [(2, 1), (60, 1)]}, 100
        )
        group, _ = _group(index, ["a", "b"])
        assert group.advance_to(40) == 50

    def test_exhaustion(self):
        index = _index({"a": [(1, 1)]}, 5)
        group, _ = _group(index, ["a"])
        group.step()
        assert group.current_doc() is None
        assert group.advance_to(0) is None
        with pytest.raises(SimulationError):
            group.step()
        with pytest.raises(SimulationError):
            group.current_tfs()

    def test_document_frequency_is_sum(self):
        index = _index({"a": [(1, 1), (2, 1)], "b": [(2, 1)]}, 10)
        group, _ = _group(index, ["a", "b"])
        assert group.document_frequency == 3  # upper bound (2 distinct)

    def test_empty_group_rejected(self):
        with pytest.raises(SimulationError):
            GroupCursor([], WorkCounters())

    def test_merge_ops_counted(self):
        index = _index({"a": [(1, 1)], "b": [(2, 1)]}, 10)
        group, work = _group(index, ["a", "b"])
        group.current_doc()
        assert work.merge_ops >= 1
