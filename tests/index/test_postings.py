"""Unit tests for posting-list primitives."""

import pytest

from repro.errors import InvertedIndexError
from repro.index.postings import Posting, PostingList


class TestPostingList:
    def test_append_and_read(self):
        pl = PostingList("cat")
        pl.append(1, 2)
        pl.append(5, 1)
        assert pl.doc_ids == [1, 5]
        assert pl.tfs == [2, 1]
        assert pl.document_frequency == 2

    def test_iteration_yields_postings(self):
        pl = PostingList("x")
        pl.append(3, 4)
        assert list(pl) == [Posting(3, 4)]
        assert pl[0].doc_id == 3

    def test_out_of_order_rejected(self):
        pl = PostingList("x")
        pl.append(5, 1)
        with pytest.raises(InvertedIndexError):
            pl.append(5, 1)
        with pytest.raises(InvertedIndexError):
            pl.append(3, 1)

    def test_zero_tf_rejected(self):
        pl = PostingList("x")
        with pytest.raises(InvertedIndexError):
            pl.append(1, 0)

    def test_negative_doc_id_rejected(self):
        pl = PostingList("x")
        with pytest.raises(InvertedIndexError):
            pl.append(-1, 1)

    def test_bool(self):
        assert not PostingList("x")
        pl = PostingList("x")
        pl.append(0, 1)
        assert pl
