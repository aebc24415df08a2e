"""Modeled-metrics equivalence: ``executor="fast"`` vs the reference.

The columnar executor with leader runs off (``executor="fast"``: its
general iteration alone), the bulk ``decode_block`` path and the
host-side decoded-block cache are *wall-clock* optimizations only.
Against ``fast_path=False`` (the reference oracle: per-value decoders,
no cache) every functional and modeled output must be
**bit-identical**: rankings, per-bucket :class:`TrafficCounter` totals,
every :class:`WorkCounters` field, the order of payload fetches (the
records ``recording_fetches`` hands the cache simulator and the I/O
planner), and the full observability trace (spans, traffic entries,
latencies).

Warm-cache runs are covered explicitly: the second pass over a query
batch serves blocks from the decoded cache, and must still charge the
exact same modeled traffic as a cold run. The leader-runs-on side
(``executor="columnar"``) and the decoded cache's own counters are
pinned by ``tests/test_columnar_equivalence.py``.
"""

import pytest

from repro.core import BossAccelerator, BossConfig
from repro.observability import RecordingObserver
from tests.conftest import _assert_pair_identical, build_random_index
from tests.test_differential import _random_queries


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
