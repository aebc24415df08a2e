"""Every block cache's decisions on seeded operation streams, pinned.

:class:`repro.cache.LRUBlockCache`, :class:`repro.cache.DecodedBlockCache`
and :class:`repro.ioplanner.DramTier` each keep their policy over one
:class:`repro.cache.BlockLRU` core. ``golden/cache_core.json`` holds what
the three caches did **at the commit before the core landed**, when each
kept its own ``OrderedDict``, byte count and eviction loop: per stream,
every operation's outcome (hit or miss, the decoded value returned) and
the final state — resident keys in LRU order per segment with their
sizes, ``hits``, ``misses`` and used bytes. How the caches keep their
books may change what an access costs, never what it decides.

The ``lru_block_cache`` and ``decoded_block_cache`` entries were
generated by this module with :func:`_resident` reading that commit's
``OrderedDict`` fields; the rest is unchanged. The ``dram_tier``
entries were regenerated by the present :func:`dram_tier_stream` (same
draws, lookups and cold admits only) at the commit before the tier's
prefetch path was deleted, so they pin the demand path to the tier
that still had window closes, popularity and warm/hot admits.

    PYTHONPATH=src:. python -m tests.cache_core_golden --check

exits non-zero on the first differing stream (CI runs this). Regenerate
only when a cache's policy changes on purpose::

    PYTHONPATH=src:. python -m tests.cache_core_golden
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path
from typing import Dict, List

from repro.cache import DecodedBlockCache, LRUBlockCache
from repro.ioplanner.tier import SEGMENTS, DramTier

GOLDEN_PATH = Path(__file__).parent / "golden" / "cache_core.json"

#: Streams per cache and operations per stream.
STREAMS = 32
OPERATIONS = 250


def _size(rng: random.Random, capacity: int, share: int) -> int:
    """A block size: up to ``1/share`` of the capacity (0 included), or
    one time in twenty larger than the whole cache."""
    if rng.random() < 0.05:
        return capacity + rng.randrange(1, 64)
    return rng.randrange(capacity // share + 2)


def _resident(core, value: bool = False) -> List[list]:
    """One core's resident keys, LRU first: ``[*key, weight]`` rows, or
    ``[*key, value]`` for a cache whose every block weighs 1."""
    return [[*key, entry[1] if value else entry[0]]
            for key, entry in core.entries.items()]


def lru_block_stream(seed: int) -> dict:
    """Accesses over few keys and sizes around the capacity: hits that
    change a block's size, evictions and oversized blocks all occur."""
    rng = random.Random(f"cache-core:lru:{seed}")
    capacity = rng.choice((1, 60, 250, 1000))
    cache = LRUBlockCache(capacity)
    outcomes = "".join(
        "1" if cache.access(rng.choice("abc"), rng.randrange(4),
                            _size(rng, capacity, 3)) else "0"
        for _ in range(OPERATIONS))
    return {"capacity": capacity, "outcomes": outcomes,
            "resident": _resident(cache._lru), "hits": cache.hits,
            "misses": cache.misses, "used_bytes": cache.used_bytes}


def decoded_block_stream(seed: int) -> dict:
    """Gets and puts over ``(term, block, scheme)``; a put stores its
    operation number, so each get's outcome names the put it sees."""
    rng = random.Random(f"cache-core:decoded:{seed}")
    capacity = rng.randrange(1, 9)
    cache = DecodedBlockCache(capacity)
    outcomes = []
    for op in range(OPERATIONS):
        key = (rng.choice("abc"), rng.randrange(3), rng.choice(("BP", "VB")))
        if rng.random() < 0.6:
            outcomes.append(cache.get(*key))
        else:
            cache.put(*key, op)
            outcomes.append("p")
    return {"capacity": capacity, "outcomes": outcomes,
            "resident": _resident(cache._lru, value=True),
            "hits": cache.hits,
            "misses": cache.misses, "num_blocks": cache.num_blocks}


def dram_tier_stream(seed: int) -> dict:
    """Lookups and admits, in a seeded mix."""
    rng = random.Random(f"cache-core:tier:{seed}")
    capacity = rng.choice((1, 150, 600, 2000))
    tier = DramTier(capacity)
    outcomes = []
    for _ in range(OPERATIONS):
        draw = rng.random()
        term, block = rng.choice("abcd"), rng.randrange(5)
        size = _size(rng, capacity, 4)
        if draw < 0.45:
            outcomes.append(int(tier.lookup(term, block, size)))
        else:
            tier.admit(term, block, size)
            outcomes.append("a")
    return {"capacity": capacity, "outcomes": outcomes,
            "segments": {name: _resident(tier._segments[name])
                         for name in SEGMENTS},
            "segment_bytes": {name: tier.segment_bytes(name)
                              for name in SEGMENTS},
            "hits": tier.hits, "misses": tier.misses,
            "used_bytes": tier.used_bytes}


STREAM_KINDS = {
    "lru_block_cache": lru_block_stream,
    "decoded_block_cache": decoded_block_stream,
    "dram_tier": dram_tier_stream,
}


def cache_core_records() -> Dict[str, List[dict]]:
    return {kind: [stream(seed) for seed in range(STREAMS)]
            for kind, stream in STREAM_KINDS.items()}


def load() -> Dict[str, List[dict]]:
    return json.loads(GOLDEN_PATH.read_text())


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    records = cache_core_records()
    if "--check" not in argv:
        GOLDEN_PATH.write_text("{\n%s\n}\n" % ",\n".join(
            '"%s": [\n%s\n]' % (kind, ",\n".join(
                json.dumps(stream) for stream in streams))
            for kind, streams in records.items()))
        print(f"wrote {GOLDEN_PATH}")
        return 0
    golden = load()
    for kind, streams in records.items():
        if len(streams) != len(golden[kind]):
            print(f"{kind}: {len(streams)} streams, golden has "
                  f"{len(golden[kind])}")
            return 1
        for seed, (record, pinned) in enumerate(zip(streams, golden[kind])):
            if record != pinned:
                print(f"{kind} stream {seed} differs from {GOLDEN_PATH.name}")
                return 1
    print(f"{sum(map(len, records.values()))} streams identical to "
          f"{GOLDEN_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
