"""Interval sharding of a document collection.

The paper (Sections II-B, IV-A): "the inverted index is divided into
multiple disjoint partitions, or shards, according to the intervals of
docIDs. Each leaf node holds a distinct shard and operates only on its
shard."

Shards here keep *global* docIDs (each shard's index simply contains the
postings of its interval), and every shard builder receives the
corpus-global document statistics, so a document scores identically
whether it is served by a shard or by a monolithic index — which tests
assert. Shard document-length tables cover the whole corpus (a few bytes
per document of replicated metadata, the standard trade for consistent
ranking).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from typing import Iterable, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.index.builder import GlobalStatistics, IndexBuilder
from repro.index.index import InvertedIndex


class ShardedCorpus:
    """A document collection split into docID-interval shards.

    ``replication_factor`` models serving replication: each shard's
    index is held by that many leaf nodes (1 = unreplicated). Shard
    indexes are read-only once built, so replicas share the index
    object — what replication buys is *engine* redundancy (independent
    leaves the root can fail over between), which is exactly what
    :meth:`replica_indexes` feeds.
    """

    def __init__(self, indexes: Sequence[InvertedIndex],
                 boundaries: Sequence[int],
                 replication_factor: int = 1) -> None:
        if len(boundaries) != len(indexes) + 1:
            raise ConfigurationError(
                "boundaries must bracket every shard"
            )
        for i in range(len(boundaries) - 1):
            if boundaries[i] >= boundaries[i + 1]:
                raise ConfigurationError(
                    f"shard boundaries must be strictly increasing; "
                    f"boundaries[{i}]={boundaries[i]} >= "
                    f"boundaries[{i + 1}]={boundaries[i + 1]}"
                )
        if replication_factor < 1:
            raise ConfigurationError(
                f"replication factor must be >= 1, got {replication_factor}"
            )
        self.indexes = list(indexes)
        #: ``boundaries[i] .. boundaries[i+1]-1`` is shard i's interval.
        self.boundaries = list(boundaries)
        #: Leaf nodes holding each shard (1 = no replicas).
        self.replication_factor = replication_factor

    @property
    def num_shards(self) -> int:
        return len(self.indexes)

    def replica_indexes(self, shard_index: int) -> List[InvertedIndex]:
        """The *backup* copies of one shard's index.

        Returns ``replication_factor - 1`` entries (the primary is not
        repeated) — build one engine per entry and hand the per-shard
        lists to :class:`~repro.cluster.root.SearchCluster` as
        ``replicas``.
        """
        if not 0 <= shard_index < self.num_shards:
            raise ConfigurationError(f"no shard {shard_index}")
        return [
            self.indexes[shard_index]
            for _ in range(self.replication_factor - 1)
        ]

    def shard_of(self, doc_id: int) -> int:
        """Index of the shard holding ``doc_id`` (O(log shards))."""
        if not self.boundaries[0] <= doc_id < self.boundaries[-1]:
            raise ConfigurationError(f"docID {doc_id} outside every shard")
        return bisect_right(self.boundaries, doc_id) - 1


def shard_documents(documents: Iterable[Sequence[str]], num_shards: int,
                    schemes: Optional[Sequence[str]] = None,
                    replication_factor: int = 1) -> ShardedCorpus:
    """Index ``documents`` into ``num_shards`` docID-interval shards.

    Pass 1 computes the corpus-global statistics (document lengths and
    term dfs — the root's bookkeeping); pass 2 builds one index per
    contiguous docID interval, each seeded with those global statistics.
    ``replication_factor`` marks how many leaf nodes serve each shard
    (see :class:`ShardedCorpus`); the index is built once per shard.
    """
    if num_shards <= 0:
        raise ConfigurationError("need at least one shard")
    docs: List[List[str]] = [list(tokens) for tokens in documents]
    if len(docs) < num_shards:
        raise ConfigurationError(
            f"cannot split {len(docs)} documents into {num_shards} shards"
        )

    # Pass 1: global statistics.
    doc_lengths = [len(tokens) for tokens in docs]
    term_dfs: Counter = Counter()
    for tokens in docs:
        term_dfs.update(set(tokens))
    stats = GlobalStatistics(num_docs=len(docs), term_dfs=dict(term_dfs))

    # Pass 2: per-interval shard indexes with global docIDs.
    base = 0
    boundaries = [0]
    indexes: List[InvertedIndex] = []
    per_shard = (len(docs) + num_shards - 1) // num_shards
    while base < len(docs):
        end = min(len(docs), base + per_shard)
        builder = IndexBuilder(schemes=schemes, global_stats=stats)
        builder.declare_documents(doc_lengths)
        shard_postings: dict = {}
        for doc_id in range(base, end):
            for term, tf in Counter(docs[doc_id]).items():
                shard_postings.setdefault(term, []).append((doc_id, tf))
        for term in sorted(shard_postings):
            builder.add_postings(term, shard_postings[term])
        indexes.append(builder.build())
        boundaries.append(end)
        base = end
    return ShardedCorpus(indexes, boundaries,
                         replication_factor=replication_factor)
