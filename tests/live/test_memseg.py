"""Unit tests for the in-memory write buffer."""

from collections import Counter

import pytest

from repro.errors import InvertedIndexError
from repro.live import MemSegment
from repro.live.memseg import POSTING_BYTES


class TestMemSegment:
    def test_add_and_views(self):
        seg = MemSegment(max_docs=8)
        seg.add(3, Counter({"a": 2, "b": 1}), 3)
        seg.add(5, Counter({"a": 1}), 1)
        assert len(seg) == 2
        assert 3 in seg and 5 in seg and 4 not in seg
        assert seg.doc_ids() == [3, 5]
        assert seg.length_of(3) == 3
        assert seg.terms_of(3) == ("a", "b")
        assert seg.tf(3, "a") == 2
        assert seg.tf(5, "b") == 0
        assert seg.tf(99, "a") == 0
        assert seg.approx_bytes == POSTING_BYTES * 3 + 4 * 2

    def test_postings_by_term_ascending(self):
        seg = MemSegment(max_docs=8)
        seg.add(7, Counter({"a": 1}), 1)
        seg.add(2, Counter({"a": 4, "b": 1}), 5)
        assert seg.postings_by_term() == {
            "a": [(2, 4), (7, 1)],
            "b": [(2, 1)],
        }

    def test_duplicate_and_empty_add_rejected(self):
        seg = MemSegment(max_docs=8)
        seg.add(1, Counter({"a": 1}), 1)
        with pytest.raises(InvertedIndexError):
            seg.add(1, Counter({"b": 1}), 1)
        with pytest.raises(InvertedIndexError):
            seg.add(2, Counter(), 0)

    def test_remove_returns_and_unknown_raises(self):
        seg = MemSegment(max_docs=8)
        seg.add(1, Counter({"a": 2}), 2)
        length, tfs = seg.remove(1)
        assert (length, tfs) == (2, Counter({"a": 2}))
        assert len(seg) == 0 and seg.approx_bytes == 0
        with pytest.raises(InvertedIndexError):
            seg.remove(1)

    def test_doc_bound_trips_full(self):
        seg = MemSegment(max_docs=2)
        seg.add(0, Counter({"a": 1}), 1)
        assert not seg.full
        seg.add(1, Counter({"a": 1}), 1)
        assert seg.full

    def test_byte_bound_trips_full(self):
        seg = MemSegment(max_docs=100, max_bytes=2 * POSTING_BYTES)
        seg.add(0, Counter({"a": 1, "b": 1}), 2)
        assert seg.approx_bytes == 2 * POSTING_BYTES + 4
        assert seg.full

    def test_drain_empties(self):
        seg = MemSegment(max_docs=4)
        seg.add(0, Counter({"a": 1}), 1)
        drained = seg.drain()
        assert list(drained) == [0]
        assert len(seg) == 0
        assert seg.approx_bytes == 0

    def test_invalid_bounds_rejected(self):
        with pytest.raises(InvertedIndexError):
            MemSegment(max_docs=0)
        with pytest.raises(InvertedIndexError):
            MemSegment(max_docs=1, max_bytes=0)
