"""The cursor's cache-miss path decodes the whole list.

A decoded-cache miss decodes the missing block's list in one pass
(``CompressedPostingList.decode_arrays``), ``put``-s the block it was
asked for and prefills the list's other blocks, which counts neither a
hit nor a miss. A list that does not decode whole falls back to the
demanded block alone: a query that never reaches the corrupt block is
unaffected, and one that does fails exactly as a block-at-a-time
decoder fails there.
"""

import pytest

from repro.core import BossAccelerator, BossConfig
from repro.errors import CompressionError
from repro.index import IndexBuilder
from repro.index.blocks import Block
from tests.conftest import reseat

#: Four blocks of "a" (docIDs 0-399); "b" sits in a's first block,
#: "c" in its last.
POSTINGS = {
    "a": [(doc, 1 + doc % 3) for doc in range(400)],
    "b": [(3, 1), (7, 2), (9, 1)],
    "c": [(390, 1), (395, 2)],
}


def _index(scheme, corrupt_block=None):
    builder = IndexBuilder(schemes=[scheme])
    builder.declare_documents([12] * 400)
    for term, postings in POSTINGS.items():
        builder.add_postings(term, *zip(*postings))
    index = builder.build()
    if corrupt_block is not None:
        # An empty d-gap payload: no codec decodes a posting from it.
        plist = index.posting_list("a")
        blocks = list(plist.blocks)
        blocks[corrupt_block] = Block(
            metadata=blocks[corrupt_block].metadata, doc_payload=b"",
            tf_payload=blocks[corrupt_block].tf_payload,
        )
        reseat(plist, blocks)
    return index


SCHEMES = ("BP", "OptPFD", "S16", "S8b", "VB")


@pytest.mark.parametrize("scheme", SCHEMES)
def test_first_miss_prefills_the_list(scheme):
    engine = BossAccelerator(_index(scheme), BossConfig(k=10))
    cache = engine.decoded_cache
    assert engine.index.posting_list("a").num_blocks == 4
    engine.search('"a" AND "b"')
    # One miss per list; all four of a's blocks and b's one are in.
    assert (cache.hits, cache.misses, cache.num_blocks) == (0, 2, 5)
    engine.search('"a" AND "c"')
    # a's last block was prefilled: c's list is the only miss.
    assert cache.misses == 3
    assert cache.hits >= 1


@pytest.mark.parametrize("scheme", SCHEMES)
def test_corrupt_block_is_only_seen_by_a_query_that_reaches_it(scheme):
    index = _index(scheme, corrupt_block=3)
    engine = BossAccelerator(index, BossConfig(k=10))
    cache = engine.decoded_cache
    clean = BossAccelerator(_index(scheme), BossConfig(k=10))
    # Never reaches block 3: the same answer as on the clean index, and
    # the failed list decode prefilled nothing (a's block 0, b's block).
    hits = engine.search('"a" AND "b"').hits
    assert hits == clean.search('"a" AND "b"').hits
    assert cache.num_blocks == 2
    # Reaches block 3: the block-at-a-time decoder's error, verbatim.
    with pytest.raises(CompressionError) as expected:
        index.posting_list("a").decode_block_arrays(3)
    with pytest.raises(CompressionError) as raised:
        engine.search('"a" AND "c"')
    assert str(raised.value) == str(expected.value)


def test_every_miss_makes_exactly_one_put(small_index):
    engine = BossAccelerator(small_index, BossConfig(k=10))
    cache = engine.decoded_cache
    puts = []
    put = cache.put
    cache.put = lambda *args: (puts.append(args[:2]), put(*args))
    for query in ('"t0" OR "t1"', '"t2" AND "t5"', '"t0" OR "t1"',
                  '"t3" AND ("t1" OR "t9")', '"t7"'):
        engine.search(query)
    assert cache.misses > 0
    assert len(puts) == cache.misses
    assert len(set(puts)) == len(puts)
