"""Property tests: sharded serving is invisible to the searcher."""

import random
from bisect import bisect_right

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import SearchCluster, shard_documents
from repro.compression import list_codecs
from repro.core import BossAccelerator, BossConfig
from repro.index import IndexBuilder

_CACHE = {}


def _setup(num_docs, seed):
    key = (num_docs, seed)
    if key not in _CACHE:
        rng = random.Random(seed)
        words = [f"w{i}" for i in range(25)]
        documents = [
            [words[min(24, int(rng.expovariate(0.2)))]
             for _ in range(rng.randrange(4, 20))]
            for _ in range(num_docs)
        ]
        builder = IndexBuilder()
        for doc in documents:
            builder.add_document(doc)
        _CACHE[key] = (documents, builder.build())
    return _CACHE[key]


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=100),
    num_shards=st.integers(min_value=1, max_value=6),
    k=st.sampled_from([1, 7, 30]),
    query_seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_cluster_equals_monolithic(seed, num_shards, k,
                                            query_seed):
    documents, monolithic_index = _setup(300, seed % 3)
    monolithic = BossAccelerator(monolithic_index, BossConfig(k=k))
    sharded = shard_documents(documents, num_shards=num_shards)
    cluster = SearchCluster([
        BossAccelerator(index, BossConfig(k=k))
        for index in sharded.indexes
    ])

    rng = random.Random(query_seed)
    terms = [f"w{rng.randrange(0, 25)}" for _ in range(4)]
    expressions = [
        f'"{terms[0]}"',
        f'"{terms[0]}" AND "{terms[1]}"',
        f'"{terms[0]}" OR "{terms[1]}"',
        f'"{terms[0]}" AND ("{terms[1]}" OR "{terms[2]}")',
    ]
    for expression in expressions:
        try:
            mono = monolithic.search(expression, k=k)
        except Exception:
            continue  # term absent from this corpus draw
        merged = cluster.search(expression, k=k)
        assert [
            (h.doc_id, round(h.score, 8)) for h in merged.hits
        ] == [
            (h.doc_id, round(h.score, 8)) for h in mono.hits
        ], (expression, num_shards)


_CODECS = sorted(list_codecs())


@settings(max_examples=20, deadline=None)
@given(
    num_shards=st.integers(min_value=2, max_value=6),
    k=st.sampled_from([3, 10, 25]),
    codec=st.sampled_from(_CODECS),
    shape=st.sampled_from(["uniform", "alternating"]),
)
def test_property_tie_break_spans_shard_boundaries(num_shards, k, codec,
                                                   shape):
    """Root merge ties break exactly like the monolith's top-k.

    Corpora built so that many documents share one BM25 score and those
    score-ties straddle shard boundaries: every document identical
    (``uniform``) or two interleaved score classes (``alternating``).
    The hardware queue orders by ``(-score, doc_id)``, so the cluster
    merge must reproduce the monolith's hit list bit-for-bit — lowest
    docID first within a tie — for every codec.
    """
    num_docs = 48
    if shape == "uniform":
        documents = [["w0", "w1", "w1"] for _ in range(num_docs)]
    else:
        documents = [
            ["w0", "w1"] if i % 2 == 0 else ["w0", "w0", "w1"]
            for i in range(num_docs)
        ]
    monolithic_index = shard_documents(documents, num_shards=1,
                                       schemes=[codec]).indexes[0]
    monolithic = BossAccelerator(monolithic_index, BossConfig(k=k))
    sharded = shard_documents(documents, num_shards=num_shards,
                              schemes=[codec])
    cluster = SearchCluster([
        BossAccelerator(index, BossConfig(k=k))
        for index in sharded.indexes
    ])

    for expression in ['"w0"', '"w1"', '"w0" AND "w1"', '"w0" OR "w1"']:
        mono = monolithic.search(expression, k=k)
        merged = cluster.search(expression, k=k)
        pairs = [(h.doc_id, round(h.score, 10)) for h in merged.hits]
        assert pairs == [
            (h.doc_id, round(h.score, 10)) for h in mono.hits
        ], (expression, codec, num_shards)
        # When k exceeds a shard's capacity the hit list necessarily
        # crosses a boundary — check the ties really do span shards:
        # some tied score class contributes hits from two of them.
        by_score: dict = {}
        for doc_id, score in pairs:
            shard = bisect_right(sharded.boundaries, doc_id) - 1
            by_score.setdefault(score, set()).add(shard)
        shard_size = (num_docs + num_shards - 1) // num_shards
        if k > shard_size:
            assert any(len(shards) > 1 for shards in by_score.values())
        # Within a tie, lowest docID wins — the queue's documented order.
        for score, _shards in by_score.items():
            tied = [d for d, s in pairs if s == score]
            assert tied == sorted(tied)

