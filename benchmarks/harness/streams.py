"""Input generation: pinned query pools, seed-drawn operation streams.

What a workload *is* — its corpus, its pool of queries and how popular
each is — is pinned here, because a Zipf(1.0) log gives its top query
a fifth of all traffic: letting the seed pick which query that is
moved ``host_qps`` by 46 % between seeds (measured), which no
regression bound survives. What the seed draws is the operation
*stream*: which operations follow the first round and in what order,
the arrival instants of the open loop workloads, and the documents of
the ingest and cluster workloads.

A stream is a sequence of *rounds*. Round 0 is a pinned multiset of
operations (for a Zipf log, the pool's popularity quota) in seed-drawn
order; the host phase times it over and over, so a host pass is a
fixed prefix of the modeled operations and its composition — hence
``host_qps`` — does not change with the seed. The later rounds are
drawn from the pool by the seed, so the modeled numbers, taken over
the whole stream, do.
"""

from __future__ import annotations

import random
from typing import List, NamedTuple, Sequence

from repro.workloads import QuerySampler

#: Seeds the pinned query pools (not the streams drawn from them).
POOL_SEED = 20210614


class Query(NamedTuple):
    """One pool entry: a Table II type and its expression string."""

    qtype: str
    expression: str


def typed_pool(terms_by_df: Sequence[str], qtypes: Sequence[str],
               per_type: int) -> List[Query]:
    """``per_type`` sampled queries of each type, popularity-shuffled.

    Built with the library's TREC-like sampler (which draws one-term
    queries from the head tenth of the vocabulary, so a large Q1 pool
    repeats expressions); the shuffle decides which query holds which
    Zipf rank.
    """
    sampler = QuerySampler(terms_by_df, seed=POOL_SEED)
    pool = [
        Query(qtype, spec.expression)
        for qtype in qtypes
        for spec in sampler.sample_of_type(qtype, per_type)
    ]
    random.Random(POOL_SEED).shuffle(pool)
    return pool


def zipf_quota(num_unique: int, num_ops: int,
               exponent: float = 1.0) -> List[int]:
    """Occurrences of each popularity rank in a round of ``num_ops``.

    The Zipf expectation rounded by largest remainder, so the counts
    sum to ``num_ops`` exactly and ties go to the more popular rank.
    """
    weights = [1.0 / rank ** exponent
               for rank in range(1, num_unique + 1)]
    total = sum(weights)
    exact = [num_ops * w / total for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(num_unique),
                          key=lambda i: (counts[i] - exact[i], i))
    for i in by_remainder[:num_ops - sum(counts)]:
        counts[i] += 1
    return counts


def zipf_stream(pool: Sequence, pass_ops: int, num_rounds: int,
                seed: int, exponent: float = 1.0) -> List[List]:
    """A Zipf log over ``pool`` as rounds of ``pass_ops`` operations.

    Round 0 holds each rank's exact quota; the others are independent
    Zipf draws.
    """
    rng = random.Random(f"stream:{seed}")
    first = [item
             for item, count in zip(pool, zipf_quota(len(pool), pass_ops,
                                                     exponent))
             for _ in range(count)]
    rng.shuffle(first)
    weights = [1.0 / rank ** exponent
               for rank in range(1, len(pool) + 1)]
    return [first] + [
        rng.choices(pool, weights=weights, k=pass_ops)
        for _ in range(num_rounds - 1)
    ]
