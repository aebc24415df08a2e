"""Hardware top-k selection module model.

The paper's top-k module (Section IV-C) is a shift-register priority
queue with ``k`` entries of (docID, query-score), sorted descending by
score. An arriving entry is broadcast to all positions; each position
locally decides to keep its value, shift, or latch the newcomer — an O(1)
insert per arriving document at one document per cycle.

:class:`TopKQueue` reproduces the *semantics* (including the tie rule:
an incoming entry that ties the resident score ranks below it, i.e.
earlier-arriving documents win ties) while counting inserts for the
timing model. The functional result is verified in tests against a
software heap.

The queue also exposes :attr:`cutoff` — the lowest score currently in the
top-k — which feeds the early-termination logic of the block fetch and
union modules ("current cutoff" in the paper).

**Admission.** A caller that searches one corpus in pieces (the live
index's segments) already holds two facts when a piece starts, and the
queue takes both at construction:

* ``floor`` — the cutoff register preloaded. A score ``<= floor`` is
  refused from the first offer on, so both early-termination levels
  prune from iteration one instead of after ``k`` accepted inserts.
* ``exclude`` — docIDs refused whatever their score (tombstones). The
  offer is still counted: the document reached the scorer, it just never
  occupies a slot, so the cutoff rises as fast as on a clean corpus.
"""

from __future__ import annotations

from bisect import insort
from typing import Collection, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

#: The paper's default k (Section IV-C: "By default, k is set to 1000").
DEFAULT_K = 1000


def positive_k(k: int) -> int:
    """``k`` itself, or the engines' refusal of a ``k`` below 1."""
    if k <= 0:
        raise ConfigurationError(f"k must be positive, got {k}")
    return k


class TopKQueue:
    """Fixed-capacity descending-score priority queue.

    Entries are ``(score, doc_id)``. The queue keeps the ``k`` highest
    scores seen; ties are broken in favor of the earlier-arriving (and on
    simultaneous arrival, lower-docID) document, matching a shift-register
    implementation where an equal-score newcomer is inserted *after* the
    residents.

    ``floor`` preloads the cutoff and ``exclude`` names docIDs no offer
    may admit (module docstring); with neither, the queue starts empty
    and admits by score alone.
    """

    def __init__(self, k: int = DEFAULT_K, *,
                 floor: Optional[float] = None,
                 exclude: Optional[Collection[int]] = None) -> None:
        self._k = positive_k(k)
        # Ascending list of (score, -arrival) so that index 0 is the
        # eviction candidate. We track arrival order to implement the
        # first-wins tie rule.
        self._entries: List[Tuple[float, int, int]] = []  # (score, -seq, doc)
        if floor is not None:
            # The preload: ``k`` placeholder residents at the floor. The
            # queue is full from the start, so ``entries[0][0]`` is the
            # cutoff for every reader (the executors inline that read)
            # and a real entry, always above the floor, evicts a
            # placeholder before any real one. Arrival +1 sorts a
            # placeholder apart from every real entry (theirs are <= 0).
            self._entries = [(floor, 1, None)] * k
        self._exclude = frozenset() if exclude is None else exclude
        self._sequence = 0
        self._inserts = 0

    @property
    def k(self) -> int:
        return self._k

    @property
    def size(self) -> int:
        """Documents held (placeholders of a preloaded floor excluded):
        every accepted offer takes one sequence number and one slot."""
        return min(self._sequence, self._k)

    @property
    def inserts(self) -> int:
        """Number of insert operations processed (timing model input)."""
        return self._inserts

    @property
    def cutoff(self) -> float:
        """Score of the lowest-ranked entry in the current top-k.

        Zero while the queue is not yet full — any positive score can
        still enter, so no early termination is possible (the hardware's
        cutoff register starts at 0) — unless a ``floor`` preloaded it.
        """
        if len(self._entries) < self._k:
            return 0.0
        return self._entries[0][0]

    def offer(self, doc_id: int, score: float) -> bool:
        """Submit a scored document; returns True if it entered the queue.

        An entry enters only if its score strictly exceeds the cutoff
        (ties lose to residents, as in the shift-register design) and
        its docID is not excluded.
        """
        self._inserts += 1
        if len(self._entries) < self._k:
            if doc_id in self._exclude:
                return False
            insort(self._entries, (score, -self._sequence, doc_id))
            self._sequence += 1
            return True
        # The score test first: an offer a full queue rejects (the
        # common one) never pays the exclusion lookup.
        if score <= self._entries[0][0] or doc_id in self._exclude:
            return False
        self._entries.pop(0)
        insort(self._entries, (score, -self._sequence, doc_id))
        self._sequence += 1
        return True

    def fill(self, doc_ids: Sequence[int], scores: Sequence[float]) -> None:
        """:meth:`offer` the pairs in order, for a queue with room for
        all of them (none evicts; every offer is accepted unless its
        docID is excluded, so read :attr:`size` for what got in).

        Entries ``(score, -sequence, doc)`` are totally ordered, so one
        sort builds the list the one-by-one ``insort`` calls would; a
        queue with exclusions makes those calls.
        """
        count = len(scores)
        if len(self._entries) + count > self._k:
            raise ConfigurationError(
                f"fill of {count} entries overflows the top-{self._k} queue"
            )
        if self._exclude:
            for doc_id, score in zip(doc_ids, scores):
                self.offer(doc_id, score)
            return
        sequence = self._sequence
        self._entries.extend(
            zip(scores, range(-sequence, -sequence - count, -1), doc_ids)
        )
        self._entries.sort()
        self._sequence = sequence + count
        self._inserts += count

    def results(self) -> List[Tuple[int, float]]:
        """Final ``(docID, score)`` list, best first.

        Ties are ordered by arrival (earlier first), matching the shift
        order of the hardware queue.
        """
        return [
            (doc_id, score)
            for score, _neg_seq, doc_id in sorted(
                self._entries, key=lambda e: (-e[0], -e[1])
            )
            if doc_id is not None  # a floor's placeholder
        ]

    @property
    def result_bytes(self) -> int:
        """Bytes shipped to the host: 4 B docID + 4 B score per entry."""
        return 8 * self.size
