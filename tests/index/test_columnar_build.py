"""The whole-build array passes of :class:`IndexBuilder`, list by list.

``IndexBuilder.build`` derives every list's d-gaps, block streams, bit
widths, BM25 scores and block records in passes over the whole build's
concatenated columns. This file rebuilds each list the way a per-block
builder does it — scalar ``term_score`` maxima, ``encode_block`` per
block, every candidate sized by ``len(encode(...))`` — and requires the
built list to match it field by field and byte for byte.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import deltas_from_doc_ids, get_codec
from repro.compression.hybrid import PAPER_SCHEMES
from repro.errors import CompressionError, InvertedIndexError
from repro.index.blocks import BLOCK_SIZE, encode_block
from repro.index.bm25 import BM25Scorer
from repro.index.builder import IndexBuilder
from repro.index.index import BlockColumns
from repro.index.postings import PostingList

#: DocIDs stay below this, so a one-posting list's gap reaches 2**20.
ID_SPACE = (1 << 20) + 1

#: One scorer for every example: varied lengths, so every posting's
#: normalizer differs from its neighbours'.
SCORER = BM25Scorer(5 + (np.arange(ID_SPACE) * 7919) % 240)


def ceil_float32(score):
    """The record's rounding, scalar: the nearest float32, bumped one
    bit pattern up when it lies below ``score``."""
    (rounded,) = struct.unpack("<f", struct.pack("<f", score))
    if rounded < score:
        (bits,) = struct.unpack("<I", struct.pack("<f", rounded))
        (rounded,) = struct.unpack("<f", struct.pack("<I", bits + 1))
    return rounded


gap_strategy = st.one_of(st.integers(0, 3), st.integers(0, 255),
                         st.integers(0, 1 << 20))


@st.composite
def posting_columns(draw):
    """One list: 1-400 postings, gaps up to 2**20, tf 1-64."""
    gaps = draw(st.lists(gap_strategy, min_size=1, max_size=400))
    doc_ids, doc_id = [], -1
    for gap in gaps:
        doc_id += gap + 1
        if doc_id >= ID_SPACE:
            break
        doc_ids.append(doc_id)
    tfs = draw(st.lists(st.integers(1, 64), min_size=len(doc_ids),
                        max_size=len(doc_ids)))
    return doc_ids, tfs


builds = st.lists(st.one_of(posting_columns(), st.tuples(
    st.integers(0, ID_SPACE - 1).map(lambda doc: [doc]),
    st.integers(1, 64).map(lambda tf: [tf]))), min_size=1, max_size=4)


def reference_list(doc_ids, tfs, schemes):
    """``(scheme, idf, list max, columns, payload)`` of one list, built
    block by block with the scalar formula and the per-block encoder."""
    idf = SCORER.idf(len(doc_ids))
    gaps = deltas_from_doc_ids(doc_ids)
    sizes = {}
    for name in schemes:
        try:
            sizes[name] = len(get_codec(name).encode(gaps))
        except CompressionError:
            pass
    scheme = min(sizes, key=sizes.__getitem__)
    codec = get_codec(scheme)
    columns = BlockColumns([], [], [], [], [], [], [], [])
    parts = []
    offset = 0
    list_max = 0.0
    for start in range(0, len(doc_ids), BLOCK_SIZE):
        ids = doc_ids[start:start + BLOCK_SIZE]
        block_tfs = tfs[start:start + BLOCK_SIZE]
        block_max = max(SCORER.term_score(idf, tf, doc_id)
                        for doc_id, tf in zip(ids, block_tfs))
        list_max = max(list_max, block_max)
        doc_payload, tf_payload, bit_width = encode_block(ids, block_tfs,
                                                          codec)
        for column, value in zip(columns, (
                ids[0], ids[-1], ceil_float32(block_max), offset, len(ids),
                bit_width, 0, offset + len(doc_payload))):
            column.append(value)
        parts += (doc_payload, tf_payload)
        offset += len(doc_payload) + len(tf_payload)
    return scheme, idf, list_max, columns, b"".join(parts)


@pytest.mark.parametrize("schemes", [PAPER_SCHEMES] + [
    (name,) for name in PAPER_SCHEMES], ids=["hybrid", *PAPER_SCHEMES])
@settings(max_examples=25, deadline=None)
@given(lists=builds)
def test_built_lists_equal_the_per_block_reference(schemes, lists):
    builder = IndexBuilder(schemes=schemes, scorer=SCORER)
    for at, (doc_ids, tfs) in enumerate(lists):
        builder.add_postings(f"t{at}", doc_ids, tfs)
    index = builder.build()
    for at, (doc_ids, tfs) in enumerate(lists):
        plist = index.posting_list(f"t{at}")
        scheme, idf, list_max, columns, payload = reference_list(
            doc_ids, tfs, schemes)
        assert plist.scheme == scheme
        assert plist.document_frequency == len(doc_ids)
        assert plist.idf == idf
        assert plist.max_term_score == list_max
        assert plist.columns == columns
        assert bytes(plist.payload) == payload
        assert plist.region.size == len(payload)


def refusal(doc_ids, tfs):
    """What appending the postings one by one raises."""
    posting_list = PostingList("w")
    with pytest.raises(InvertedIndexError) as caught:
        for doc_id, tf in zip(doc_ids, tfs):
            posting_list.append(doc_id, tf)
    return str(caught.value)


@pytest.mark.parametrize("doc_ids,tfs", [
    ([1, 4, 9], [2, 0, 1]),   # a tf of 0
    ([1, 4, 4], [1, 1, 1]),   # a repeated docID
    ([1, 9, 4], [1, 1, 1]),   # a descending docID
    ([-3, 4, 9], [1, 1, 1]),  # a negative docID
    ([5, 3], [0, 1]),         # two faults: the first posting's is named
], ids=["tf0", "repeated", "descending", "negative", "first-offender"])
def test_add_postings_refuses_as_append_does(doc_ids, tfs):
    builder = IndexBuilder()
    builder.declare_documents([10] * 20)
    with pytest.raises(InvertedIndexError) as caught:
        builder.add_postings("w", doc_ids, tfs)
    assert str(caught.value) == refusal(doc_ids, tfs)


def test_add_postings_refuses_an_empty_list():
    builder = IndexBuilder()
    builder.declare_documents([10] * 20)
    with pytest.raises(InvertedIndexError, match="'w': empty posting list"):
        builder.add_postings("w", [], [])
