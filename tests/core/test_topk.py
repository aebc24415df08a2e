"""Unit + property tests for the shift-register top-k queue model."""

import heapq
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.topk import DEFAULT_K, TopKQueue
from repro.errors import ConfigurationError


class TestBasics:
    def test_default_k_is_paper_value(self):
        assert DEFAULT_K == 1000
        assert TopKQueue().k == 1000

    def test_invalid_k_rejected(self):
        with pytest.raises(ConfigurationError):
            TopKQueue(0)
        with pytest.raises(ConfigurationError):
            TopKQueue(-3)

    def test_results_sorted_descending(self):
        queue = TopKQueue(3)
        for doc, score in [(1, 0.5), (2, 2.0), (3, 1.0)]:
            queue.offer(doc, score)
        assert queue.results() == [(2, 2.0), (3, 1.0), (1, 0.5)]

    def test_eviction_of_lowest(self):
        queue = TopKQueue(2)
        queue.offer(1, 1.0)
        queue.offer(2, 2.0)
        queue.offer(3, 3.0)
        assert [d for d, _ in queue.results()] == [3, 2]

    def test_cutoff_zero_until_full(self):
        queue = TopKQueue(3)
        queue.offer(1, 5.0)
        assert queue.cutoff == 0.0
        queue.offer(2, 4.0)
        queue.offer(3, 3.0)
        assert queue.cutoff == 3.0

    def test_cutoff_rises_monotonically(self):
        queue = TopKQueue(2)
        cutoffs = []
        for doc, score in enumerate([1.0, 2.0, 3.0, 4.0, 0.5]):
            queue.offer(doc, score)
            cutoffs.append(queue.cutoff)
        assert cutoffs == sorted(cutoffs)

    def test_tie_loses_to_resident(self):
        queue = TopKQueue(1)
        queue.offer(1, 1.0)
        assert not queue.offer(2, 1.0)
        assert queue.results() == [(1, 1.0)]

    def test_ties_inside_queue_keep_arrival_order(self):
        queue = TopKQueue(3)
        queue.offer(10, 1.0)
        queue.offer(20, 1.0)
        queue.offer(30, 1.0)
        assert [d for d, _ in queue.results()] == [10, 20, 30]

    def test_insert_count_tracked(self):
        queue = TopKQueue(2)
        for i in range(5):
            queue.offer(i, float(i))
        assert queue.inserts == 5

    def test_result_bytes(self):
        queue = TopKQueue(10)
        queue.offer(1, 1.0)
        queue.offer(2, 2.0)
        assert queue.result_bytes == 16


def _reference_topk(entries, k):
    """Heap-based reference with the same tie rule (earlier wins)."""
    heap = []  # (score, -arrival, doc); smallest is eviction candidate
    for arrival, (doc, score) in enumerate(entries):
        item = (score, -arrival, doc)
        if len(heap) < k:
            heapq.heappush(heap, item)
        elif item > heap[0]:
            heapq.heapreplace(heap, item)
    ranked = sorted(heap, key=lambda e: (-e[0], -e[1]))
    return [(doc, score) for score, _na, doc in ranked]


class TestAgainstHeapReference:
    def test_random_streams(self):
        rng = random.Random(5)
        for _ in range(50):
            k = rng.randrange(1, 20)
            entries = [
                (doc, rng.choice([0.5, 1.0, 1.5, 2.0, rng.random() * 3]))
                for doc in range(rng.randrange(0, 200))
            ]
            queue = TopKQueue(k)
            for doc, score in entries:
                queue.offer(doc, score)
            assert queue.results() == _reference_topk(entries, k)


@settings(max_examples=80, deadline=None)
@given(
    scores=st.lists(
        st.floats(min_value=0.0, max_value=100.0,
                  allow_nan=False, allow_infinity=False),
        max_size=150,
    ),
    k=st.integers(min_value=1, max_value=25),
)
def test_property_matches_heap(scores, k):
    entries = list(enumerate(scores))
    queue = TopKQueue(k)
    for doc, score in entries:
        queue.offer(doc, score)
    assert queue.results() == _reference_topk(entries, k)


@settings(max_examples=50, deadline=None)
@given(
    scores=st.lists(st.floats(min_value=0.0, max_value=10.0,
                              allow_nan=False), min_size=1, max_size=80),
    k=st.integers(min_value=1, max_value=10),
)
def test_property_cutoff_is_min_of_results(scores, k):
    queue = TopKQueue(k)
    for doc, score in enumerate(scores):
        queue.offer(doc, score)
    results = queue.results()
    if len(results) == k:
        assert queue.cutoff == results[-1][1]
    else:
        assert queue.cutoff == 0.0


def _reference_admission(entries, k, floor=None, exclude=()):
    """The definition: the heap reference over the offers that are not
    excluded and score above the floor."""
    return _reference_topk(
        [(doc, score) for doc, score in entries
         if doc not in exclude and (floor is None or score > floor)],
        k,
    )


class TestAdmission:
    """``floor`` (the cutoff preloaded) and ``exclude`` (docIDs refused
    whatever their score)."""

    def test_floor_is_the_cutoff_from_the_first_offer(self):
        queue = TopKQueue(3, floor=1.5)
        assert queue.cutoff == 1.5
        assert queue.size == 0
        assert queue.result_bytes == 0
        assert queue.results() == []

    def test_score_equal_to_the_floor_is_refused(self):
        queue = TopKQueue(3, floor=1.5)
        assert not queue.offer(7, 1.5)
        assert not queue.offer(8, 1.0)
        assert queue.offer(9, math.nextafter(1.5, math.inf))
        assert queue.results() == [(9, math.nextafter(1.5, math.inf))]
        assert (queue.size, queue.inserts, queue.result_bytes) == (1, 3, 8)

    def test_strictly_below_floor_admits_the_tie(self):
        """The live index's floor is ``nextafter(kth best, -inf)``: a
        score equal to that k-th best must still get in."""
        kth_best = 2.0
        queue = TopKQueue(2, floor=math.nextafter(kth_best, -math.inf))
        assert queue.offer(4, kth_best)
        assert not queue.offer(5, math.nextafter(kth_best, -math.inf))
        assert queue.results() == [(4, kth_best)]

    def test_cutoff_stays_at_the_floor_until_k_real_entries(self):
        queue = TopKQueue(2, floor=1.0)
        queue.offer(1, 5.0)
        assert (queue.cutoff, queue.size) == (1.0, 1)
        queue.offer(2, 3.0)
        assert (queue.cutoff, queue.size) == (3.0, 2)
        queue.offer(3, 4.0)
        assert (queue.cutoff, queue.size) == (4.0, 2)
        assert queue.results() == [(1, 5.0), (3, 4.0)]

    def test_excluded_offer_is_counted_and_refused(self):
        queue = TopKQueue(2, exclude={7})
        assert not queue.offer(7, 9.0)
        assert queue.offer(8, 1.0)
        assert (queue.inserts, queue.size, queue.cutoff) == (2, 1, 0.0)
        assert queue.results() == [(8, 1.0)]

    def test_fill_honours_exclude_and_counts_every_handed_doc(self):
        queue = TopKQueue(5, exclude={11, 13})
        queue.fill([10, 11, 12, 13], [1.0, 4.0, 1.0, 3.0])
        assert (queue.inserts, queue.size, queue.result_bytes) == (4, 2, 16)
        # Arrival order survives the refusals: 10 ranks before 12.
        assert queue.results() == [(10, 1.0), (12, 1.0)]
        one_by_one = TopKQueue(5, exclude={11, 13})
        for doc, score in zip([10, 11, 12, 13], [1.0, 4.0, 1.0, 3.0]):
            one_by_one.offer(doc, score)
        assert queue._entries == one_by_one._entries
        assert queue._sequence == one_by_one._sequence

    def test_fill_never_fits_a_preloaded_queue(self):
        with pytest.raises(ConfigurationError):
            TopKQueue(4, floor=0.5).fill([1], [1.0])

    def test_no_admission_arguments_is_the_plain_queue(self):
        rng = random.Random(11)
        entries = [(doc, rng.choice([0.5, 1.0, rng.random() * 3]))
                   for doc in range(120)]
        plain, explicit = TopKQueue(7), TopKQueue(7, floor=None,
                                                  exclude=None)
        for doc, score in entries:
            assert plain.offer(doc, score) == explicit.offer(doc, score)
            assert plain._entries == explicit._entries
        assert vars(plain) == vars(explicit)

    def test_random_streams_against_the_heap(self):
        rng = random.Random(23)
        for _ in range(60):
            k = rng.randrange(1, 20)
            grid = [0.5, 1.0, 1.5, 2.0]
            entries = [(doc, rng.choice(grid + [rng.random() * 3]))
                       for doc in range(rng.randrange(0, 200))]
            floor = rng.choice([None, rng.choice(grid), rng.random() * 3,
                                math.nextafter(rng.choice(grid), -math.inf)])
            exclude = rng.choice([None, set(rng.sample(
                range(200), rng.randrange(0, 120)))])
            queue = TopKQueue(k, floor=floor, exclude=exclude)
            accepted = 0
            for doc, score in entries:
                accepted += queue.offer(doc, score)
                assert queue.size == min(accepted, k)
            expected = _reference_admission(entries, k, floor,
                                            exclude or ())
            assert queue.results() == expected
            assert queue.inserts == len(entries)
            assert queue.result_bytes == 8 * len(expected)
            if len(expected) == k:
                assert queue.cutoff == expected[-1][1]
            else:
                assert queue.cutoff == (0.0 if floor is None else floor)


@settings(max_examples=80, deadline=None)
@given(
    scores=st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 2.5]),
                    max_size=120),
    k=st.integers(min_value=1, max_value=12),
    floor=st.one_of(st.none(),
                    st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 2.5]),
                    st.sampled_from([0.5, 1.0, 1.5]).map(
                        lambda s: math.nextafter(s, -math.inf))),
    exclude=st.one_of(st.none(), st.sets(st.integers(0, 119))),
)
def test_property_admission_matches_heap(scores, k, floor, exclude):
    """Scores on a coarse grid so ties with the floor, with residents and
    with each other are the common case."""
    entries = list(enumerate(scores))
    queue = TopKQueue(k, floor=floor, exclude=exclude)
    for doc, score in entries:
        queue.offer(doc, score)
    assert queue.results() == _reference_admission(entries, k, floor,
                                                   exclude or ())
    assert queue.size == len(queue.results())
    assert queue.inserts == len(entries)
