"""Modeled-metrics equivalence: ``executor="fast"`` vs the reference.

The core invariant: the bulk ``decode_block`` path, the host-side
decoded-block cache and the production executors' general iteration
(``executor="fast"``: leader runs off) are *wall-clock* optimizations
only. Against ``fast_path=False`` (the reference oracle: per-value
decoders, no cache) every functional and modeled output must be
**bit-identical**: rankings, per-bucket :class:`TrafficCounter` totals,
every :class:`WorkCounters` field, the order of payload fetches (the
records ``recording_fetches`` hands the cache simulator and the I/O
planner), and the
full observability trace (spans, traffic entries, latencies).

Warm-cache runs are covered explicitly: the second pass over a query
batch serves blocks from the decoded cache, and must still charge the
exact same modeled traffic as a cold run.
"""

import pytest

from repro.cache import DEFAULT_DECODED_CACHE_BLOCKS
from repro.core import BossAccelerator, BossConfig
from repro.core.engine import recording_fetches
from repro.observability import RecordingObserver
from repro.scm.traffic import AccessClass, AccessPattern
from tests.conftest import build_random_index, hits_as_pairs
from tests.test_differential import _random_queries


def _assert_results_identical(fast, reference, context):
    assert hits_as_pairs(fast, digits=17) == \
        hits_as_pairs(reference, digits=17), context
    assert fast.work == reference.work, context
    for cls in AccessClass:
        for pattern in AccessPattern:
            assert fast.traffic.bytes_for(cls, pattern) == \
                reference.traffic.bytes_for(cls, pattern), \
                (context, cls, pattern)
            assert fast.traffic.accesses_for(cls, pattern) == \
                reference.traffic.accesses_for(cls, pattern), \
                (context, cls, pattern)
    assert fast.interconnect_bytes == reference.interconnect_bytes, context


def _search_logged(engine, expression, **kwargs):
    """``engine.search`` plus the payload fetches it made, in order."""
    with recording_fetches() as fetches:
        result = engine.search(expression, **kwargs)
    return result, fetches.get(engine, [])


def _assert_pair_identical(engine, reference, expression, context,
                           **kwargs):
    """Both engines run ``expression``: identical results *and* the
    same payload fetches in the same order — the records the cache
    simulator and the I/O planner replay, one by one (term, block,
    bytes, observed pattern)."""
    result, log = _search_logged(engine, expression, **kwargs)
    expected, expected_log = _search_logged(reference, expression,
                                            **kwargs)
    _assert_results_identical(result, expected, context)
    assert len(log) == len(expected_log), context
    for position, (record, expected_record) in enumerate(
            zip(log, expected_log)):
        assert record == expected_record, (context, position)
    assert len(log) == result.work.blocks_fetched, context


@pytest.mark.parametrize("seed", [2, 41])
def test_fast_path_modeled_metrics_bit_identical(seed):
    index = build_random_index(num_docs=900, vocab_size=28, seed=seed)
    queries = _random_queries(sorted(index), seed * 11, count=14)
    fast = BossAccelerator(index, BossConfig(k=10), executor="fast")
    reference = BossAccelerator(index, BossConfig(k=10), fast_path=False)
    # Two passes: pass 2 runs entirely against the warm decoded cache.
    for pass_number in (1, 2):
        for expression in queries:
            _assert_pair_identical(fast, reference, expression,
                                   (pass_number, expression))
    assert fast.decoded_cache.hits > 0, "warm pass never hit the cache"


@pytest.mark.parametrize("scheme", ["BP", "VB", "S8b", "S16", "OptPFD",
                                    "GVB"])
def test_fast_path_equivalence_per_codec(scheme):
    index = build_random_index(num_docs=600, vocab_size=20, seed=77,
                               schemes=[scheme])
    queries = _random_queries(sorted(index), 19, count=8)
    fast = BossAccelerator(index, BossConfig(k=10), executor="fast")
    reference = BossAccelerator(index, BossConfig(k=10), fast_path=False)
    for expression in queries:
        _assert_pair_identical(fast, reference, expression,
                               (scheme, expression))


def test_traces_bit_identical_with_and_without_fast_path():
    index = build_random_index(num_docs=800, vocab_size=25, seed=13)
    queries = _random_queries(sorted(index), 29, count=10)

    fast_observer = RecordingObserver()
    reference_observer = RecordingObserver()
    fast = BossAccelerator(index, BossConfig(k=10),
                           observer=fast_observer, executor="fast")
    reference = BossAccelerator(index, BossConfig(k=10),
                                observer=reference_observer,
                                fast_path=False)
    for _ in range(2):  # second pass exercises the warm decoded cache
        for expression in queries:
            fast.search(expression)
            reference.search(expression)
    assert len(fast_observer.traces) == len(reference_observer.traces)
    for fast_trace, reference_trace in zip(fast_observer.traces,
                                           reference_observer.traces):
        assert fast_trace.spans == reference_trace.spans
        assert fast_trace.traffic == reference_trace.traffic
        assert fast_trace.to_dict() == reference_trace.to_dict()


def test_decoded_cache_observability_counters():
    index = build_random_index(num_docs=500, vocab_size=18, seed=3)
    observer = RecordingObserver()
    engine = BossAccelerator(index, BossConfig(k=10), observer=observer)
    for _ in range(2):
        engine.search('"t0" OR "t1"')
    snapshot = observer.registry.snapshot()
    assert "decoded_cache.accesses" in snapshot
    assert "decode.invocations" in snapshot
    cache = engine.decoded_cache
    assert cache.hits > 0 and cache.misses > 0
    assert 0.0 < cache.hit_rate < 1.0


def test_decoded_cache_ownership():
    """Production engines own one default-capacity cache each; the
    reference oracle owns none."""
    index = build_random_index(num_docs=400, vocab_size=15, seed=6)
    a = BossAccelerator(index, BossConfig(k=10))
    b = BossAccelerator(index, BossConfig(k=10))
    assert a.decoded_cache is not b.decoded_cache
    assert a.decoded_cache.capacity_blocks == DEFAULT_DECODED_CACHE_BLOCKS
    reference = BossAccelerator(index, BossConfig(k=10), fast_path=False)
    assert reference.decoded_cache is None
