"""Layer microbenchmarks that do not depend on the workload.

Codec decode throughput on each of the three decode paths, and the
per-access cost of the three caches and the top-k queue. Every traced
run measures them, on inputs drawn from the run's seed.
"""

from __future__ import annotations

import random
from time import perf_counter, perf_counter_ns
from typing import Dict

from repro import TopKQueue
from repro.cache import DecodedBlockCache, LRUBlockCache
from repro.compression import get_codec
from repro.index import BLOCK_SIZE
from repro.ioplanner import DramTier

#: The seven registered schemes, in the order the README lists them.
CODECS = ("BP", "VB", "PFD", "OptPFD", "S16", "S8b", "GVB")

DECODE_PATHS = (
    ("decode", "decode_mvals_per_s"),
    ("decode_block", "decode_block_mvals_per_s"),
    ("decode_block_columnar", "decode_block_columnar_mvals_per_s"),
)


def codec_throughput(seed: int, blocks: int) -> Dict[str, float]:
    """Million values decoded per host second, per codec and path."""
    rng = random.Random(f"codec:{seed}")
    payloads = [
        [rng.randrange(1, 1 << 12) for _ in range(BLOCK_SIZE)]
        for _ in range(8)
    ]
    out = {}
    for scheme in CODECS:
        codec = get_codec(scheme)
        encoded = [codec.encode(values) for values in payloads]
        for method, metric in DECODE_PATHS:
            decode = getattr(codec, method)
            start = perf_counter()
            for i in range(blocks):
                decode(encoded[i % len(encoded)], BLOCK_SIZE)
            seconds = perf_counter() - start
            out[f"compression.{scheme}.{metric}"] = (
                blocks * BLOCK_SIZE / seconds / 1e6)
    return out


def _ns_per_call(calls: int, body) -> float:
    start = perf_counter_ns()
    body()
    return (perf_counter_ns() - start) / calls


def access_costs(seed: int, calls: int) -> Dict[str, float]:
    """Host nanoseconds per cache access and per top-k offer."""
    rng = random.Random(f"access:{seed}")
    keys = [(f"term{rng.randrange(64):04d}", rng.randrange(256))
            for _ in range(calls)]
    scores = [rng.random() for _ in range(calls)]

    decoded = DecodedBlockCache(1024)
    for term, block in keys:
        decoded.put(term, block, "BP", (term, block))

    def decoded_gets():
        for term, block in keys:
            decoded.get(term, block, "BP")

    lru = LRUBlockCache(1 << 20)

    def lru_accesses():
        for term, block in keys:
            lru.access(term, block, 200)

    tier = DramTier(1 << 20)
    # A tier access gets dearer as the tier fills, so it gets a tenth
    # of the calls.
    tier_keys = keys[:calls // 10]

    def tier_accesses():
        for term, block in tier_keys:
            if not tier.lookup(term, block, 200):
                tier.admit(term, block, 200)

    def topk_offers():
        queue = TopKQueue(10)
        for doc_id, score in enumerate(scores):
            queue.offer(doc_id, score)

    return {
        "cache.decoded_get_ns": _ns_per_call(calls, decoded_gets),
        "cache.lru_block_access_ns": _ns_per_call(calls, lru_accesses),
        "ioplanner.dram_tier_access_ns": _ns_per_call(len(tier_keys),
                                                      tier_accesses),
        "core.topk_offer_ns": _ns_per_call(calls, topk_offers),
    }


def run(seed: int, smoke: bool) -> Dict[str, float]:
    out = codec_throughput(seed, blocks=40 if smoke else 400)
    out.update(access_costs(seed, calls=2_000 if smoke else 20_000))
    return out
