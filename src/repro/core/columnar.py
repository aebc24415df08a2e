"""Production executors: the reference algorithms, engineered for speed.

:func:`run_union_columnar` and :func:`run_grouped_intersection_fast` are
operation-for-operation replicas of :func:`repro.core.union.run_union`
and :func:`repro.core.intersection.run_grouped_intersection` — the same
cursor movements in the same order, the same counter increments, the
same floating-point summation order — pinned bit-identical to those
oracles by the equivalence suites (``tests/test_fastpath_equivalence.py``,
``tests/test_columnar_equivalence.py``): rankings, work counters,
per-bucket traffic, payload fetch order and full traces.

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
idempotent or a bare count.

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
union scores the leader's whole decoded block in one vectorized BM25
expression — the exact float op order of the scalar path, so scores are
bit-identical — and takes a whole *window* (the rest of the block, up
to the next list's docID) per numpy pass: while the queue has room the
window's head is inserted in bulk; once it is full, one comparison
finds every score above the cutoff, and since the cutoff only rises
those are the only docs an offer can still accept, so they alone are
walked and the rejected rest is bulk-counted. The walk ends early only
after an accept that flips the WAND test or the block bound, which the
loop top then re-evaluates as the oracle's next iteration would. Every
cursor movement with modeled side effects (block fetch, skip,
``advance_to``, block transition) still happens through the real cursor,
in the order the reference executor performs it.

Leader runs require the default ET configuration (``et_wand``,
``et_block``, ``interval_blocks == 1``) and a leader of at least
``_LEADER_RUN_MIN_DF`` postings; everything else runs the general
iteration. The two are interchangeable iteration by iteration, so one
query may mix them.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter
from typing import List, Optional, Sequence

import numpy as np

from repro.cache import DEFAULT_DECODED_CACHE_BLOCKS
from repro.core.groups import GroupCursor
from repro.core.topk import TopKQueue
from repro.core.union import ET_EPSILON
from repro.errors import SimulationError
from repro.index.blocks import BLOCK_SIZE
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


def _step_inline(cursor) -> Optional[int]:
    """``cursor.step()`` + return the new docID (None when exhausted).

    The common case — the next posting lives in the already-decoded
    block — is a single index bump; everything else falls through to
    :func:`_step_slow`.
    """
    ids = cursor._decoded_doc_ids
    position = cursor._position + 1
    if ids is not None and position < len(ids):
        cursor._position = position
        return ids[position]
    return _step_slow(cursor)


def _tf_inline(cursor) -> int:
    """``cursor.current_tf()`` without the method call when decoded."""
    tfs = cursor._decoded_tfs
    if tfs is not None:
        return tfs[cursor._position]
    return cursor.current_tf()


#: Sentinel "no next list" bound; sits far above any 32-bit docID.
_NO_LIMIT = 1 << 62

#: Entries kept in an engine's block-score cache before it is reset.
#: Each entry pins a decoded docID array plus its score vector, and a
#: re-decode after a decoded-block cache eviction retires the old key,
#: so the score cache may hold no more blocks than the decoded cache.
_SCORE_CACHE_LIMIT = DEFAULT_DECODED_CACHE_BLOCKS

#: A list leads runs only when it fills at least one whole block.
#: Below that a run's numpy set-up is not repaid: unions of short lists
#: (a live index's small segments, whose score caches are dropped with
#: every statistics version) measured 5-15 % slower with runs than
#: without.
_LEADER_RUN_MIN_DF = BLOCK_SIZE


def run_union_columnar(cursors, scorer: BM25Scorer, topk: TopKQueue,
                       work: WorkCounters, et_block: bool = True,
                       et_wand: bool = True, interval_blocks: int = 1,
                       score_cache: Optional[dict] = None,
                       leader_runs: bool = True) -> None:
    """Production replica of :func:`repro.core.union.run_union`.

    Alive cursors are tracked as mutable entries
    ``[doc, -max_score, max_score, idf, cursor, block_lasts,
    block_max_scores, run_ids, run_scores, leads_runs]`` whose docID
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
            plist = cursor.posting_list
            alive.append([
                cursor.current_doc(), -max_score, max_score,
                cursor.idf, cursor, cursor._lasts,
                [b.metadata.max_term_score for b in plist.blocks],
                None, None,
                run_capable
                and plist.document_frequency >= _LEADER_RUN_MIN_DF,
            ])

    # BM25 term-score arithmetic, inlined with the exact operation order
    # of ``BM25Scorer.term_score``:
    #   idf * (tf * (k1 + 1.0)) / (tf + normalizer)
    normalizers = scorer._normalizers
    k1_plus_1 = scorer.params.k1 + 1.0
    offer = topk.offer
    # ``TopKQueue.cutoff`` inlined: 0.0 until the queue is full, else
    # the lowest resident score (entries are sorted ascending).
    topk_entries = topk._entries
    topk_k = topk.k
    cutoff = topk_entries[0][0] if len(topk_entries) >= topk_k else 0.0
    merge_ops = docs_evaluated = docs_matched = topk_inserts = 0
    # Set when a cursor exhausts: only then is ``alive`` re-filtered.
    lost = False
    try:
        while alive:
            # (1) Sorter: order by (sID, -list max score), stable.
            num_alive = len(alive)
            if num_alive > 1:
                alive.sort(key=_ENTRY_KEY)
            merge_ops += 1

            # (2)+(3) Score loader + pivot selector (WAND).
            if et_wand:
                pivot_index = None
                upper_bound = 0.0
                for index, entry in enumerate(alive):
                    upper_bound += entry[2]
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
            pivot_set = alive[: pivot_index + 1]

            if pivot_index == 0 and alive[0][9]:
                # ---- leader run ------------------------------------
                # Sole pivot: consume iterations without re-sorting
                # until the leader catches up with the next list, is
                # out-bid by the cutoff, or exhausts. The first
                # iteration's sort is already counted; later virtual
                # iterations count theirs after the exit checks (on
                # exit, the outer loop performs — and counts — the
                # next full iteration itself).
                entry = alive[0]
                cursor = entry[4]
                l0max = entry[2]
                idf = entry[3]
                lasts = entry[5]
                bmaxes = entry[6]
                limit_doc = alive[1][0] if num_alive > 1 else _NO_LIMIT
                counted = True
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
                    # leader's current doc is inside its current block,
                    # so the bisect lands on that block.
                    index = bisect_left(lasts, doc, cursor._block_index)
                    if index > cursor._metadata_read_upto:
                        cursor._charge_metadata(index)
                    if bmaxes[index] + ET_EPSILON <= cutoff:
                        d = lasts[index] + 1
                        if limit_doc < d:
                            d = limit_doc
                        entry[0] = cursor.advance_to(d)
                        continue
                    # Evaluation: force the (modeled) payload fetch and
                    # materialize the block's scores once, vectorized
                    # with the scalar path's exact float op order.
                    ids = cursor._decoded_doc_ids
                    if ids is None:
                        cursor._ensure_decoded()
                        ids = cursor._decoded_doc_ids
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
                                / (tfs_f + scorer.normalizer_array[ids_nd])
                            )
                            if len(score_cache) >= _SCORE_CACHE_LIMIT:
                                score_cache.clear()
                            score_cache[id(ids)] = (ids, scores_nd)
                        else:
                            scores_nd = cached[1]
                        entry[8] = scores_nd
                    else:
                        scores_nd = entry[8]
                    # The window: the rest of the block, up to the next
                    # list's docID. Inside it a step has no modeled side
                    # effect and the decisions above can flip only when
                    # an accepted insert raises the cutoff, so the
                    # window's iterations collapse into bulk counter
                    # additions around the offers the queue accepts.
                    pos = cursor._position
                    size = len(ids)
                    end = (size if limit_doc >= _NO_LIMIT
                           else bisect_left(ids, limit_doc, pos))
                    room = topk_k - len(topk_entries)
                    if room > 0:
                        # Queue not yet full: an offer is refused only
                        # for an excluded docID, and the cutoff stays
                        # 0.0 until the last slot is taken. ``fill``
                        # counts every doc it is handed.
                        stop = min(pos + room, end)
                        offered = stop - pos
                        topk.fill(ids[pos:stop], scores_nd[pos:stop].tolist())
                        if len(topk_entries) >= topk_k:
                            cutoff = topk_entries[0][0]
                    else:
                        stop = end
                        offered = 0
                        window = scores_nd[pos:end]
                        above = window > cutoff
                        if above[above.argmax()]:
                            # The cutoff only rises, so every accept in
                            # the window is among the docs above it now:
                            # one pass finds them, and the walk ends
                            # after the accept that flips the WAND test
                            # or the block bound (re-checked, and acted
                            # on, at the loop top).
                            hot = above.nonzero()[0]
                            block_max = bmaxes[index]
                            for offset, score in zip(hot.tolist(),
                                                     window[hot].tolist()):
                                if score > cutoff:
                                    offer(ids[pos + offset], score)
                                    offered += 1
                                    cutoff = topk_entries[0][0]
                                    if (not (l0max + ET_EPSILON > cutoff)
                                            or block_max + ET_EPSILON
                                            <= cutoff):
                                        stop = pos + offset + 1
                                        break
                    # ``n`` iterations ran: the first one's sort is
                    # counted at the loop top, and the queue counted the
                    # offers it was really handed.
                    n = stop - pos
                    merge_ops += n - 1
                    docs_evaluated += n
                    docs_matched += n
                    topk_inserts += n
                    topk._inserts += n - offered
                    if stop < size:
                        cursor._position = stop
                        entry[0] = ids[stop]
                    else:
                        cursor._position = size - 1
                        entry[0] = _step_slow(cursor)
                if entry[0] is None:
                    del alive[0]
                continue

            # ---- general iteration ---------------------------------
            # Block-level check (score-estimation unit). For the default
            # one-block interval the peek is inlined: the pivot-set
            # cursors are live by construction (no exhausted check) and
            # the bound is one precomputed per-block maximum. Metadata
            # is still charged through the cursor, block by block (the
            # charge is high-water idempotent, so it is called only for
            # a block not charged yet).
            target = None
            if et_block:
                bound = 0.0
                min_boundary = _NO_LIMIT
                if interval_blocks == 1:
                    for entry in pivot_set:
                        lasts = entry[5]
                        cursor = entry[4]
                        index = bisect_left(lasts, pivot_doc,
                                            cursor._block_index)
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

            # (4) Document scheduler.
            if target is None and alive[0][0] == pivot_doc:
                score = 0.0
                normalizer = normalizers[pivot_doc]
                for entry in pivot_set:
                    if entry[0] == pivot_doc:
                        cursor = entry[4]
                        tfs = cursor._decoded_tfs
                        tf = (tfs[cursor._position] if tfs is not None
                              else cursor.current_tf())
                        score += (entry[3] * (tf * k1_plus_1)
                                  / (tf + normalizer))
                docs_evaluated += 1
                docs_matched += 1
                topk_inserts += 1
                if score <= cutoff and len(topk_entries) >= topk_k:
                    # A full queue rejects the offer: count it without
                    # the call (the cutoff cannot have moved).
                    topk._inserts += 1
                else:
                    offer(pivot_doc, score)
                    cutoff = (topk_entries[0][0]
                              if len(topk_entries) >= topk_k else 0.0)
                for entry in pivot_set:
                    if entry[0] == pivot_doc:
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
        work.docs_matched += docs_matched
        work.topk_inserts += topk_inserts


def run_grouped_intersection_fast(groups: Sequence[GroupCursor],
                                  work: WorkCounters):
    """Production replica of ``intersection.run_grouped_intersection``.

    Pinned to the reference by both equivalence suites
    (``tests/test_fastpath_equivalence.py``,
    ``tests/test_columnar_equivalence.py``) on hits, work counters,
    per-bucket traffic and — record by record — the payload fetch order
    (``fetch_log``), and by the shape and property tests of
    ``tests/core/test_intersection.py``.

    Two loops share the in-block seek. When every group is a single
    term (Q2, Q4) :func:`_intersect_terms` zig-zags over the cursors
    directly; an OR-group (Q6, the general rewrite) takes
    :func:`_intersect_groups`, which merges each group's members.
    """
    if not groups:
        raise SimulationError("intersection needs at least one group")
    ordered = sorted(groups, key=lambda g: g.document_frequency)
    if all(len(group.members) == 1 for group in ordered):
        matches, merge_ops = _intersect_terms(
            [group.members[0] for group in ordered]
        )
    else:
        matches, merge_ops = _intersect_groups(ordered)
    work.merge_ops += merge_ops
    work.docs_matched += len(matches)
    return matches


def _intersect_terms(cursors):
    """SvS zig-zag over single-term groups, in SvS order.

    A one-member group's merged stream *is* its member, and its
    ``merge_ops`` contribution is zero by construction, so the group
    layer drops out: what is left is one ``[doc, cursor, term]`` entry
    per list, entry 0 the driver. The loop seeks list ``i`` to
    ``target``: the others in order to the driver's candidate, then —
    when one of them jumps past it — the driver to the jump target,
    which makes the next candidate.

    ``-1`` marks a list not primed yet: its first seek goes through
    ``cursor.advance_to``, which on a fresh cursor charges and lands
    exactly as the reference's ``current_doc`` + ``advance_to`` pair
    does, at the moment the reference first touches the list.
    """
    entries = [[-1, cursor, cursor.term] for cursor in cursors]
    num_lists = len(entries)
    driver = cursors[0]
    matches = []
    target = driver.current_doc()
    if target is None:
        return matches, 0
    merge_ops = 1  # one per candidate
    i = 1
    while True:
        if i == num_lists:
            # Every list sits on the candidate.
            matches.append((target, {
                entry[2]: _tf_inline(entry[1]) for entry in entries
            }))
            target = _step_inline(driver)
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
    return matches, merge_ops


def _intersect_groups(ordered):
    """The generic loop: groups of any size, in SvS order.

    Each group's member cursors are tracked as ``[doc, cursor]`` entries
    (doc None = exhausted); the group-level min-docID, tf collection and
    step logic run over those cached ints, reproducing exactly the
    ``merge_ops`` contributions of every :class:`GroupCursor` method the
    reference path would have called (including the internal
    ``current_doc`` of ``current_tfs`` and ``step``).
    """
    # Group state: [primed?, [[doc, cursor], ...]]. Members are primed
    # lazily at the group's first operation, exactly when the reference
    # path first asks each member for its docID.
    states = [[False, [[None, member] for member in group.members]]
              for group in ordered]
    merge_ops = 0

    def prime(state):
        if not state[0]:
            state[0] = True
            for entry in state[1]:
                entry[0] = entry[1].current_doc()

    def g_current_doc(state):
        nonlocal merge_ops
        prime(state)
        best = None
        live = 0
        for entry in state[1]:
            doc = entry[0]
            if doc is not None:
                live += 1
                if best is None or doc < best:
                    best = doc
        if live > 1:
            merge_ops += live - 1
        return best

    def g_advance_to(state, target):
        nonlocal merge_ops
        prime(state)
        best = None
        live = 0
        for entry in state[1]:
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
                    doc = ids[position]
                else:
                    doc = cursor.advance_to(target)
                entry[0] = doc
                if doc is None:
                    continue
            live += 1
            if best is None or doc < best:
                best = doc
        if live > 1:
            merge_ops += live - 1
        return best

    def g_current_tfs(state):
        doc = g_current_doc(state)
        if doc is None:
            raise SimulationError("group cursor exhausted")
        tfs = {}
        for entry in state[1]:
            if entry[0] == doc:
                tfs[entry[1].term] = _tf_inline(entry[1])
        return tfs

    def g_step(state):
        doc = g_current_doc(state)
        if doc is None:
            raise SimulationError("group cursor exhausted")
        for entry in state[1]:
            if entry[0] == doc:
                entry[0] = _step_inline(entry[1])

    matches = []
    driver = states[0]
    others = states[1:]
    doc = g_current_doc(driver)
    while doc is not None:
        merge_ops += 1
        candidate = doc
        in_all = True
        for state in others:
            landed = g_advance_to(state, candidate)
            if landed is None:
                doc = None
                in_all = False
                break
            if landed != candidate:
                doc = g_advance_to(driver, landed)
                in_all = False
                break
        if doc is None:
            break
        if in_all:
            tfs = g_current_tfs(driver)
            for state in others:
                tfs.update(g_current_tfs(state))
            matches.append((candidate, tfs))
            g_step(driver)
            doc = g_current_doc(driver)
    return matches, merge_ops
