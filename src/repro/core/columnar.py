"""Production executors: the reference algorithms, engineered for speed.

:func:`run_union_columnar` and :func:`run_grouped_intersection_fast` are
operation-for-operation replicas of :func:`repro.core.union.run_union`
and of :func:`repro.core.intersection.run_grouped_intersection` with
the engine's scoring pass (``BossAccelerator._score_matches``) — the
same cursor movements in the same order, the same counter increments,
the same floating-point summation order — pinned bit-identical to those
oracles by the equivalence suites, with leader runs on
(``tests/test_columnar_equivalence.py``) and off
(``tests/test_fastpath_equivalence.py``): rankings, work counters,
per-bucket traffic, payload fetch order and full traces. Like the
union, the intersection scores and offers each match where it finds it,
as BOSS's intersection unit feeds the scoring module: no match list and
no second pass.

They remove two kinds of host-side overhead.

*Per call*: the hot per-iteration state (each cursor's current docID,
its list-max score, the top-k cutoff) lives in loop-local variables
instead of being re-derived through method and property calls. This is
safe because all modeled side effects live inside
:class:`~repro.core.cursor.ListCursor`'s *movement* operations
(``advance_to``, ``step``, ``current_tf`` — block fetches, skips,
metadata charges) and only at **block transitions**: a move that stays
inside the already-decoded block is a position bump with no modeled
effect. So the loops inline exactly that case — the step
(``position + 1``), the tf read and the one in-block seek,
``bisect_left(ids, target, position + 1)``, which is also all
``advance_to`` itself does there — and call the real cursor, in the
oracle's order, whenever a block boundary is crossed or a payload is
not decoded yet. The polling operations the replicas elide
(``exhausted``, repeated ``current_doc``, a metadata charge below the
high-water mark, a top-k offer a full queue rejects) are pure,
idempotent or a bare count, and a full queue's accept of a docID not
excluded is ``TopKQueue.offer``'s own ``heapreplace``, inline.

*Per iteration* (leader runs): most union iterations end in a rejected
top-k offer, and between two **accepted** inserts the loop's decision
state is frozen:

* the cutoff changes only when an insert is accepted;
* with a sole pivot ("leader") the WAND test reads one constant
  (the leader's list-max score) against that cutoff;
* the block-level bound is one constant per block;
* within a decoded block a ``step`` is a position bump with **no**
  modeled side effects (metadata charging is high-water idempotent).

So whenever the pivot set collapses to a single leader (the common case
on Zipf-distributed unions: one list is far denser than the rest), the
union takes a whole *window* — the rest of the leader's decoded block,
up to the next list's docID — per pass, and bulk-counts the iterations
around the offers the queue accepts. A window of at most
``_SHORT_WINDOW`` postings is scored doc by doc with the scalar path's
arithmetic, and one that holds a single posting (most of them) is
scored and stepped inline, with no search for its end. A longer one
takes the leader's block scores from one vectorized BM25 expression —
the exact float op order of the scalar path, so scores are
bit-identical — built once per block: while the queue has room the
window's head is inserted in bulk; once it is full, one comparison
finds every score above the cutoff, and since the cutoff only rises
those are the only docs an offer can still accept, so they alone are
walked and the rejected rest is bulk-counted. Either walk ends early
only after an accept that flips the WAND test or the block bound,
which the loop top then re-evaluates as the oracle's next iteration
would. Every cursor movement with modeled side effects (block fetch,
skip, ``advance_to``, block transition) still happens through the real
cursor, in the order the reference executor performs it.

With three or more lists a run that reaches the next list *hands off
in place*: only the leader has moved since the last sort, so one
insertion re-sorts ``alive`` (a swap when the leader belongs right
behind the second list), and the loop top's next decision is taken
right there when it makes a new leader, or advances a front, inside its
decoded block, to the list it pivots with.

Leader runs require the default ET configuration (``et_wand``,
``et_block``, ``interval_blocks == 1``); under it every sole pivot
leads one, and everything else runs the general iteration. The two are
interchangeable iteration by iteration, so one query mixes them.
``docs/columnar.md`` ("Hand-offs in place") has the exactness
argument.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heapreplace
from operator import itemgetter
from typing import List, Optional, Sequence

import numpy as np

from repro.cache import DEFAULT_DECODED_CACHE_BLOCKS
from repro.core.groups import GroupCursor
from repro.core.topk import TopKQueue
from repro.core.union import ET_EPSILON
from repro.errors import SimulationError
from repro.index.bm25 import BM25Scorer
from repro.sim.metrics import WorkCounters

#: Sort key over alive entries ``[doc, -max_score, ...]`` — the same
#: ``(doc, -list_max_score)`` ordering as ``union._sort_key``, extracted
#: at C speed.
_ENTRY_KEY = itemgetter(0, 1)


def _step_slow(cursor) -> Optional[int]:
    """Block-transition half of a step: delegate to the cursor itself.

    Used when the next posting is *not* in the already-decoded block
    (boundary crossing or an undecoded block), so the cursor's own
    ``step`` performs the fetch/skip accounting.
    """
    cursor.step()
    ids = cursor._decoded_doc_ids
    if ids is not None:
        return ids[cursor._position]
    return cursor.current_doc()


#: Sentinel "no next list" bound; sits far above any 32-bit docID.
_NO_LIMIT = 1 << 62

#: Entries kept in an engine's block-score cache before it is reset.
#: Each entry pins a decoded docID array plus its score vector, and a
#: re-decode after a decoded-block cache eviction retires the old key,
#: so the score cache may hold no more blocks than the decoded cache.
_SCORE_CACHE_LIMIT = DEFAULT_DECODED_CACHE_BLOCKS

#: A leader-run window of at most this many postings is walked as plain
#: Python: up to it a numpy pass (score vector, slice, compare) costs
#: more than the scalar scoring it replaces. 2-32 measured alike.
_SHORT_WINDOW = 8


def run_union_columnar(cursors, scorer: BM25Scorer, topk: TopKQueue,
                       work: WorkCounters, et_block: bool = True,
                       et_wand: bool = True, interval_blocks: int = 1,
                       score_cache: Optional[dict] = None,
                       leader_runs: bool = True) -> None:
    """Production replica of :func:`repro.core.union.run_union`.

    Alive cursors are tracked as mutable entries
    ``[doc, -max_score, max_score, idf, cursor, block_lasts,
    block_max_scores, run_ids, run_scores]`` whose docID
    slot is refreshed after every movement, so sorting, pivot
    selection, tie absorption and the block-level ET peek read plain
    ints/floats instead of calling back into the cursor. ``run_ids``
    and ``run_scores`` cache the leader run's per-block score vector
    (decoded arrays object -> scores) so a run re-entered after an
    interleaving iteration reuses it.

    Work counters accumulate in locals and flush on exit (nothing
    observes them mid-query).

    ``score_cache`` maps ``id(decoded doc-id array) -> (array, scores)``
    and outlives single queries (the engine passes one per accelerator):
    a block's BM25 score vector depends only on the list's idf and the
    per-document normalizers, both fixed for an index snapshot, so
    repeated queries over the same hot lists skip the vector build. The
    cached array object is strongly referenced, which pins its ``id``.
    The key carries no statistics: an owner whose decoded arrays
    outlive a snapshot (a live segment's engine) must pass a new dict
    per snapshot.

    ``leader_runs=False`` is ``executor="fast"``: every iteration takes
    the general path.
    """
    if score_cache is None:
        score_cache = {}
    run_capable = (leader_runs and et_wand and et_block
                   and interval_blocks == 1)
    alive: List[list] = []
    for cursor in cursors:
        if not cursor.exhausted:
            max_score = cursor.list_max_score
            alive.append([
                cursor.current_doc(), -max_score, max_score,
                cursor.idf, cursor, cursor._lasts,
                cursor.posting_list.block_max, None, None,
            ])

    # BM25 term-score arithmetic, inlined with the exact operation order
    # of ``BM25Scorer.term_score``:
    #   idf * (tf * (k1 + 1.0)) / (tf + normalizer)
    normalizers = scorer._normalizers
    k1_plus_1 = scorer.params.k1 + 1.0
    # ``TopKQueue.offer`` inlined for its common accept: a full queue
    # takes a docID not excluded with one ``heapreplace``. ``offer``
    # itself runs only for a queue with room or an excluded docID.
    offer = topk.offer
    exclude = topk._exclude
    # ``TopKQueue.cutoff`` inlined: 0.0 until the queue is full, else
    # the lowest resident score (the heap's top).
    topk_entries = topk._entries
    topk_k = topk.k
    cutoff = topk_entries[0][0] if len(topk_entries) >= topk_k else 0.0
    # Every evaluated document is matched and handed to the queue, so
    # one count stands for all three counters.
    merge_ops = docs_evaluated = 0
    # Set when a cursor exhausts: only then is ``alive`` re-filtered.
    lost = False
    try:
        while alive:
            # (1) Sorter: order by (sID, -list max score), stable. Two
            # entries swap only when the second's key is strictly
            # smaller, which is all the stable sort would do.
            num_alive = len(alive)
            if num_alive > 2:
                alive.sort(key=_ENTRY_KEY)
            elif num_alive == 2:
                first, second = alive
                if second[0] < first[0] or (second[0] == first[0]
                                            and second[1] < first[1]):
                    alive.reverse()
            merge_ops += 1

            # (2)+(3) Score loader + pivot selector (WAND). The front
            # list is tested first; the prefix sum starts at its bound,
            # which is ``0.0 + bound`` bit for bit.
            if et_wand:
                upper_bound = alive[0][2]
                if upper_bound + ET_EPSILON > cutoff:
                    pivot_index = 0
                else:
                    pivot_index = None
                    for index in range(1, num_alive):
                        upper_bound += alive[index][2]
                        if upper_bound + ET_EPSILON > cutoff:
                            pivot_index = index
                            break
                    if pivot_index is None:
                        return
            else:
                pivot_index = 0
            pivot_doc = alive[pivot_index][0]
            while (pivot_index + 1 < num_alive
                   and alive[pivot_index + 1][0] == pivot_doc):
                pivot_index += 1

            if pivot_index == 0 and run_capable:
                # ---- leader run ------------------------------------
                # Sole pivot: consume iterations without re-sorting
                # until the leader catches up with the next list, is
                # out-bid by the cutoff, or exhausts. The first
                # iteration's sort is already counted; later virtual
                # iterations count theirs after the exit checks (on
                # exit, the outer loop performs — and counts — the
                # next full iteration itself). With three or more lists
                # a run that reaches ``limit_doc`` hands off in place.
                entry = alive[0]
                counted = True
                while True:
                    cursor = entry[4]
                    l0max = entry[2]
                    idf = entry[3]
                    lasts = entry[5]
                    bmaxes = entry[6]
                    limit_doc = alive[1][0] if num_alive > 1 else _NO_LIMIT
                    while True:
                        doc = entry[0]
                        if doc is None or doc >= limit_doc:
                            break
                        if not (l0max + ET_EPSILON > cutoff):
                            break
                        if not counted:
                            merge_ops += 1
                        counted = False
                        # Block-level check, sole-pivot specialization: the
                        # leader's current doc lies in its current block.
                        index = cursor._block_index
                        if index > cursor._metadata_read_upto:
                            cursor._charge_metadata(index)
                        block_max = bmaxes[index]
                        if block_max + ET_EPSILON <= cutoff:
                            d = lasts[index] + 1
                            if limit_doc < d:
                                d = limit_doc
                            entry[0] = cursor.advance_to(d)
                            continue
                        # Evaluation: force the (modeled) payload fetch. The
                        # window is the rest of the block, up to the next
                        # list's docID. Inside it a step has no modeled side
                        # effect and the decisions above can flip only when
                        # an accepted insert raises the cutoff, so the
                        # window's iterations collapse into bulk counter
                        # additions around the offers the queue accepts.
                        # ``offered`` counts the ``offer`` calls; the bulk
                        # count covers every other doc the window handed
                        # the queue, inline accepts included.
                        ids = cursor._decoded_doc_ids
                        if ids is None:
                            cursor._ensure_decoded()
                            ids = cursor._decoded_doc_ids
                        pos = cursor._position
                        size = len(ids)
                        stop = pos + 1
                        if stop == size or ids[stop] >= limit_doc:
                            # One-posting window (most windows): the short
                            # window's scoring and offer rules for ``doc``
                            # alone, then a step. One iteration, so no bulk
                            # counts: the queue counts the offer unless
                            # ``offer`` itself is called.
                            tf = cursor._decoded_tfs[pos]
                            score = 0.0 + (idf * (tf * k1_plus_1)
                                           / (tf + normalizers[doc]))
                            docs_evaluated += 1
                            if score > cutoff or len(topk_entries) < topk_k:
                                if (len(topk_entries) >= topk_k
                                        and doc not in exclude):
                                    heapreplace(topk_entries, (
                                        score, -topk._sequence, doc))
                                    topk._sequence += 1
                                    topk._inserts += 1
                                else:
                                    offer(doc, score)
                                cutoff = (topk_entries[0][0]
                                          if len(topk_entries) >= topk_k
                                          else 0.0)
                            else:
                                topk._inserts += 1
                            if stop < size:
                                cursor._position = stop
                                entry[0] = ids[stop]
                            else:
                                entry[0] = _step_slow(cursor)
                            continue
                        end = (size if limit_doc >= _NO_LIMIT
                               else bisect_left(ids, limit_doc, stop))
                        stop = end
                        offered = 0
                        if end - pos <= _SHORT_WINDOW:
                            # Short window: the scalar path's scoring, doc by
                            # doc; an offer only where the queue has room or
                            # the score beats the cutoff, and the walk ends
                            # after an accept that flips the WAND test or
                            # the block bound (acted on at the loop top).
                            tfs = cursor._decoded_tfs
                            for position in range(pos, end):
                                tf = tfs[position]
                                doc = ids[position]
                                score = 0.0 + (idf * (tf * k1_plus_1)
                                               / (tf + normalizers[doc]))
                                if (score > cutoff
                                        or len(topk_entries) < topk_k):
                                    if (len(topk_entries) >= topk_k
                                            and doc not in exclude):
                                        heapreplace(topk_entries, (
                                            score, -topk._sequence, doc))
                                        topk._sequence += 1
                                    else:
                                        offer(doc, score)
                                        offered += 1
                                    cutoff = (topk_entries[0][0]
                                              if len(topk_entries) >= topk_k
                                              else 0.0)
                                    if (not (l0max + ET_EPSILON > cutoff)
                                            or block_max + ET_EPSILON
                                            <= cutoff):
                                        stop = position + 1
                                        break
                        else:
                            # Long window: the block's scores come from one
                            # array expression with the scalar path's exact
                            # float op order, built once per block.
                            if ids is not entry[7]:
                                entry[7] = ids
                                cached = score_cache.get(id(ids))
                                if cached is None:
                                    ids_nd = np.frombuffer(ids, dtype=np.uint32)
                                    tfs_f = np.frombuffer(
                                        cursor._decoded_tfs, dtype=np.uint32
                                    ).astype(np.float64)
                                    scores_nd = 0.0 + (
                                        idf * (tfs_f * k1_plus_1)
                                        / (tfs_f
                                           + scorer.normalizer_array[ids_nd])
                                    )
                                    if len(score_cache) >= _SCORE_CACHE_LIMIT:
                                        score_cache.clear()
                                    score_cache[id(ids)] = (ids, scores_nd)
                                else:
                                    scores_nd = cached[1]
                                entry[8] = scores_nd
                            else:
                                scores_nd = entry[8]
                            room = topk_k - len(topk_entries)
                            if room > 0:
                                # Queue not yet full: an offer is refused
                                # only for an excluded docID, and the cutoff
                                # stays 0.0 until the last slot is taken.
                                # ``fill`` counts every doc it is handed.
                                stop = min(pos + room, end)
                                offered = stop - pos
                                topk.fill(ids[pos:stop],
                                          scores_nd[pos:stop].tolist())
                                if len(topk_entries) >= topk_k:
                                    cutoff = topk_entries[0][0]
                            else:
                                window = scores_nd[pos:end]
                                above = window > cutoff
                                if above[above.argmax()]:
                                    # The cutoff only rises, so every accept
                                    # in the window is among the docs above
                                    # it now: one pass finds them, and the
                                    # walk ends as the short window's does.
                                    hot = above.nonzero()[0]
                                    for offset, score in zip(
                                            hot.tolist(),
                                            window[hot].tolist()):
                                        if score > cutoff:
                                            doc = ids[pos + offset]
                                            if doc in exclude:
                                                # Refused: counted with
                                                # the rejected rest.
                                                continue
                                            heapreplace(topk_entries, (
                                                score, -topk._sequence,
                                                doc))
                                            topk._sequence += 1
                                            cutoff = topk_entries[0][0]
                                            if (not (l0max + ET_EPSILON
                                                     > cutoff)
                                                    or block_max + ET_EPSILON
                                                    <= cutoff):
                                                stop = pos + offset + 1
                                                break
                        # ``n`` iterations ran: the first one's sort is
                        # counted at the loop top, and the queue counted the
                        # ``offered`` calls it was really handed.
                        n = stop - pos
                        merge_ops += n - 1
                        docs_evaluated += n
                        topk._inserts += n - offered
                        if stop < size:
                            cursor._position = stop
                            entry[0] = ids[stop]
                        else:
                            cursor._position = size - 1
                            entry[0] = _step_slow(cursor)
                    if entry[0] is None:
                        del alive[0]
                        break
                    if num_alive < 3 or entry[0] < limit_doc:
                        break
                    # ---- hand-off in place -----------------------------
                    # Only the front entry moved since ``alive`` was last
                    # sorted, so the stable sort is one insertion: behind
                    # every entry whose key is strictly smaller. The loop
                    # top's next decision is then taken here when it
                    # makes a new leader, or advances a front that pivots
                    # with the second list inside its decoded block. Two
                    # facts make that decision the general iteration's
                    # without its checks: the block holding any alive
                    # entry's docID has its metadata charged (every
                    # cursor call that reports a docID charges it), and
                    # lists tied with the second join the pivot set
                    # without moving and only raise the non-negative
                    # block-bound sum, so a tie changes nothing here.
                    entry = None
                    while True:
                        moved = alive[0]
                        doc = moved[0]
                        neg_max = moved[1]
                        second = alive[1]
                        if second[0] < doc or (second[0] == doc
                                               and second[1] < neg_max):
                            # Behind the second list at least; right
                            # behind it (half of all hand-offs) is a swap.
                            slot = 2
                            while slot < num_alive and (
                                    alive[slot][0] < doc
                                    or (alive[slot][0] == doc
                                        and alive[slot][1] < neg_max)):
                                slot += 1
                            if slot == 2:
                                alive[0] = second
                                alive[1] = moved
                            else:
                                del alive[0]
                                alive.insert(slot - 1, moved)
                        front = alive[0]
                        second = alive[1]
                        target = second[0]
                        if front[0] == target:
                            break
                        if front[2] + ET_EPSILON > cutoff:
                            merge_ops += 1
                            entry = front
                            break
                        if front[2] + second[2] + ET_EPSILON > cutoff:
                            front_cursor = front[4]
                            ids = front_cursor._decoded_doc_ids
                            # The loop top's when the target lies past the
                            # decoded block (it searches and charges later
                            # blocks) or the block bounds fall short (it
                            # skips).
                            if (ids is not None and ids[-1] >= target
                                    and 0.0
                                    + front[6][front_cursor._block_index]
                                    + second[6][second[4]._block_index]
                                    + ET_EPSILON > cutoff):
                                merge_ops += 1
                                position = bisect_left(
                                    ids, target, front_cursor._position + 1)
                                front_cursor._position = position
                                front[0] = ids[position]
                                continue
                        break
                    if entry is None:
                        break
                    counted = True
                continue

            # ---- general iteration ---------------------------------
            pivot_set = alive[: pivot_index + 1]
            # Block-level check (score-estimation unit). For the default
            # one-block interval the peek is inlined: the pivot-set
            # cursors are live by construction (no exhausted check) and
            # the bound is one precomputed per-block maximum. Metadata
            # is still charged through the cursor, block by block (the
            # charge is high-water idempotent, so it is called only for
            # a block not charged yet). A list whose current block still
            # covers the pivot needs no search.
            target = None
            if et_block:
                bound = 0.0
                min_boundary = _NO_LIMIT
                if interval_blocks == 1:
                    for entry in pivot_set:
                        lasts = entry[5]
                        cursor = entry[4]
                        index = cursor._block_index
                        if pivot_doc > lasts[index]:
                            index = bisect_left(lasts, pivot_doc, index + 1)
                            if index >= len(lasts):
                                continue
                        if index > cursor._metadata_read_upto:
                            cursor._charge_metadata(index)
                        bound += entry[6][index]
                        block_last = lasts[index]
                        if block_last < min_boundary:
                            min_boundary = block_last
                else:
                    for entry in pivot_set:
                        peek = entry[4].peek_block_at(
                            pivot_doc, window=interval_blocks
                        )
                        if peek is None:
                            continue
                        max_score, block_last = peek
                        bound += max_score
                        if block_last < min_boundary:
                            min_boundary = block_last
                if bound + ET_EPSILON <= cutoff:
                    # Skip the fruitless interval: every pivot-set list
                    # moves to d = min(boundary + 1, next list's sID).
                    target = min_boundary + 1
                    if pivot_index + 1 < num_alive:
                        next_doc = alive[pivot_index + 1][0]
                        if next_doc < target:
                            target = next_doc

            # (4) Document scheduler. The front list on the pivot means
            # every pivot-set list sits on it. Scoring and stepping stay
            # two loops: fused, they would reorder block fetches.
            if target is None and alive[0][0] == pivot_doc:
                score = 0.0
                normalizer = normalizers[pivot_doc]
                for entry in pivot_set:
                    cursor = entry[4]
                    tfs = cursor._decoded_tfs
                    tf = (tfs[cursor._position] if tfs is not None
                          else cursor.current_tf())
                    score += entry[3] * (tf * k1_plus_1) / (tf + normalizer)
                docs_evaluated += 1
                if score <= cutoff and len(topk_entries) >= topk_k:
                    # A full queue rejects the offer: count it without
                    # the call (the cutoff cannot have moved).
                    topk._inserts += 1
                elif len(topk_entries) < topk_k or pivot_doc in exclude:
                    offer(pivot_doc, score)
                    cutoff = (topk_entries[0][0]
                              if len(topk_entries) >= topk_k else 0.0)
                else:
                    heapreplace(topk_entries,
                                (score, -topk._sequence, pivot_doc))
                    topk._sequence += 1
                    topk._inserts += 1
                    cutoff = topk_entries[0][0]
                for entry in pivot_set:
                    cursor = entry[4]
                    ids = cursor._decoded_doc_ids
                    position = cursor._position + 1
                    if ids is not None and position < len(ids):
                        cursor._position = position
                        entry[0] = ids[position]
                    else:
                        doc = entry[0] = _step_slow(cursor)
                        if doc is None:
                            lost = True
            else:
                # Advance the lagging lists: to the skip target, or (no
                # skip) to the pivot. The in-block case is the cursor's
                # own binary seek, inlined; a block boundary goes
                # through the cursor and its accounting.
                if target is None:
                    target = pivot_doc
                for entry in pivot_set:
                    if entry[0] < target:
                        cursor = entry[4]
                        ids = cursor._decoded_doc_ids
                        if ids is not None and ids[-1] >= target:
                            position = cursor._position
                            cursor._position = position = bisect_left(
                                ids, target, position + 1
                            )
                            entry[0] = ids[position]
                        else:
                            doc = entry[0] = cursor.advance_to(target)
                            if doc is None:
                                lost = True
            if lost:
                lost = False
                alive = [e for e in alive if e[0] is not None]
    finally:
        work.merge_ops += merge_ops
        work.docs_evaluated += docs_evaluated
        work.docs_matched += docs_evaluated
        work.topk_inserts += docs_evaluated


def run_grouped_intersection_fast(groups: Sequence[GroupCursor],
                                  work: WorkCounters, scorer: BM25Scorer,
                                  topk: TopKQueue) -> None:
    """Production replica of ``intersection.run_grouped_intersection``
    and ``BossAccelerator._score_matches``, fused: each match is scored
    and offered to ``topk`` where the loop finds it.

    Pinned to the reference by both equivalence suites on hits, work
    counters, per-bucket traffic and the recorded fetch order, and by the
    shape and property tests of ``tests/core/test_intersection.py``.

    Groups become lists of ``[doc, cursor, idf]`` member entries in SvS
    order, and a match sums ``idf * (tf * (k1 + 1.0)) / (tf +
    normalizer)`` over its members in that order: the insertion order
    of the reference's tf map. The map keys a term once, so a repeat
    (``"a" AND ("a" OR "b")``) has ``idf`` None: its tf is read, for the
    fetch that may cost, but not scored. One-term groups without a
    repeat (Q2, Q4) take :func:`_intersect_terms`, any other shape (Q6)
    :func:`_intersect_groups`; both return ``(merge_ops, matches)``.
    """
    if not groups:
        raise SimulationError("intersection needs at least one group")
    ordered = []
    seen = set()
    for group in sorted(groups, key=lambda g: g.document_frequency):
        members = []
        for cursor in group.members:
            members.append(
                [-1, cursor, None if cursor.term in seen else cursor.idf])
            seen.add(cursor.term)
        ordered.append(members)
    scoring = (scorer._normalizers, scorer.params.k1 + 1.0, topk)
    if all(len(members) == 1 and members[0][2] is not None
           for members in ordered):
        merge_ops, matched = _intersect_terms(
            [members[0] for members in ordered], *scoring)
    else:
        merge_ops, matched = _intersect_groups(ordered, *scoring)
    work.merge_ops += merge_ops
    work.docs_matched += matched
    work.docs_evaluated += matched
    work.topk_inserts += matched


def _intersect_terms(entries, normalizers, k1_plus_1, topk):
    """SvS zig-zag over single-term groups, in SvS order.

    A one-member group's merged stream *is* its member, and its
    ``merge_ops`` contribution is zero by construction, so the group
    layer drops out: what is left is one ``[doc, cursor, idf]`` entry
    per list, entry 0 the driver. The loop seeks list ``i`` to
    ``target``: the others in order to the driver's candidate, then —
    when one of them jumps past it — the driver to the jump target,
    which makes the next candidate. The first move seeks the driver to
    docID 0.

    ``-1`` marks a list not primed yet: its first seek goes through
    ``cursor.advance_to``, which on a fresh cursor charges and lands
    exactly as the reference's ``current_doc`` + ``advance_to`` pair
    (the driver's seek to 0, as its ``current_doc``) does, at the moment
    the reference first touches the list.
    """
    heap = topk._entries
    k = topk.k
    exclude = topk._exclude
    num_lists = len(entries)
    driver = entries[0][1]
    merge_ops = matched = target = i = 0
    while True:
        if i == num_lists:
            # Every list sits on the candidate: score it here.
            matched += 1
            score = 0.0
            normalizer = normalizers[target]
            for entry in entries:
                cursor = entry[1]
                tfs = cursor._decoded_tfs
                tf = (tfs[cursor._position] if tfs is not None
                      else cursor.current_tf())
                score += entry[2] * (tf * k1_plus_1) / (tf + normalizer)
            if len(heap) >= k and score <= heap[0][0]:
                # A full queue rejects the offer: count it, skip the call.
                topk._inserts += 1
            elif len(heap) < k or target in exclude:
                topk.offer(target, score)
            else:
                # ``offer``'s accept into a full queue, inline.
                heapreplace(heap, (score, -topk._sequence, target))
                topk._sequence += 1
                topk._inserts += 1
            # The driver steps: its block is decoded, for the tf read.
            ids = driver._decoded_doc_ids
            position = driver._position + 1
            if position < len(ids):
                driver._position = position
                target = ids[position]
            else:
                target = _step_slow(driver)
                if target is None:
                    break
            merge_ops += 1
            i = 1
            continue
        entry = entries[i]
        landed = entry[0]
        if landed < target:
            cursor = entry[1]
            ids = cursor._decoded_doc_ids
            if ids is not None and ids[-1] >= target:
                position = cursor._position
                cursor._position = position = bisect_left(
                    ids, target, position + 1
                )
                landed = ids[position]
            else:
                landed = cursor.advance_to(target)
                if landed is None:
                    break
            entry[0] = landed
        if i == 0:
            # The driver re-anchored: ``landed`` is the next candidate.
            merge_ops += 1
            i = 1
        elif landed == target:
            i += 1
            continue
        else:
            i = 0  # jumped past the candidate: re-anchor the driver
        target = landed
    return merge_ops, matched


def _intersect_groups(groups, normalizers, k1_plus_1, topk):
    """The generic loop: the zig-zag of :func:`_intersect_terms` over
    groups of any size, in SvS order.

    Seeking a group is ``GroupCursor.advance_to`` over its member
    entries (doc None = exhausted, ``-1`` = not primed yet, as there);
    its head is the least member docID. The driver's ``step`` past a
    match is a seek to ``candidate + 1``: every member it moves has its
    block decoded for the tf read, so it lands in that block or at the
    next block's first docID, with the same effects as ``step``
    followed by ``current_doc``. Each :class:`GroupCursor` call of the
    reference costs ``live - 1`` merge ops over its ``live`` members
    not exhausted, and the loop charges every one.
    """
    heap = topk._entries
    k = topk.k
    exclude = topk._exclude
    num_groups = len(groups)
    driver = groups[0]
    merge_ops = matched = target = i = 0
    while True:
        if i == num_groups:
            # Every group's head is the candidate: score it here.
            matched += 1
            score = 0.0
            normalizer = normalizers[target]
            for group in groups:
                live = -1
                for entry in group:
                    doc = entry[0]
                    if doc is None:
                        continue
                    live += 1
                    if doc == target:
                        cursor = entry[1]
                        tfs = cursor._decoded_tfs
                        tf = (tfs[cursor._position] if tfs is not None
                              else cursor.current_tf())
                        idf = entry[2]
                        if idf is not None:
                            score += idf * (tf * k1_plus_1) / (
                                tf + normalizer)
                # ``current_tfs``; the driver's ``step`` once more.
                merge_ops += 2 * live if group is driver else live
            if len(heap) >= k and score <= heap[0][0]:
                # A full queue rejects the offer: count it, skip the call.
                topk._inserts += 1
            elif len(heap) < k or target in exclude:
                topk.offer(target, score)
            else:
                # ``offer``'s accept into a full queue, inline.
                heapreplace(heap, (score, -topk._sequence, target))
                topk._sequence += 1
                topk._inserts += 1
            target += 1  # the driver's step: a seek past the candidate
            i = 0
        landed = None
        live = -1
        for entry in groups[i]:
            doc = entry[0]
            if doc is None:
                continue
            if doc < target:
                cursor = entry[1]
                ids = cursor._decoded_doc_ids
                if ids is not None and ids[-1] >= target:
                    position = cursor._position
                    cursor._position = position = bisect_left(
                        ids, target, position + 1
                    )
                    doc = entry[0] = ids[position]
                else:
                    doc = entry[0] = cursor.advance_to(target)
                    if doc is None:
                        continue
            live += 1
            if landed is None or doc < landed:
                landed = doc
        if landed is None:
            break
        merge_ops += live
        if i == 0:
            # The driver re-anchored: ``landed`` is the next candidate.
            merge_ops += 1
            i = 1
        elif landed == target:
            i += 1
            continue
        else:
            i = 0  # jumped past the candidate: re-anchor the driver
        target = landed
    return merge_ops, matched
