"""Intersection module: pipelined SvS with block-level overlap skipping.

Implements the paper's intersection path (Sections III-B and IV-C):

* **Small-versus-Small (SvS)**: posting lists are intersected from the
  smallest pair up, so every later membership test runs against an
  already-shrunk candidate set;
* **overlap check unit**: a block is fetched only if its metadata docID
  range ``[first, last]`` can overlap the other side's candidates
  (Figure 5(a)(b)); non-overlapping blocks are skipped without touching
  their payload;
* **pipelined multi-term execution**: the intermediate docID/tf tuples of
  each pairwise intersection stay in the pipeline (on-chip buffers) and
  feed the block fetch module for the next term directly — no spill to
  SCM, no reload (this is the "LD Inter / ST Inter" traffic BOSS
  eliminates relative to IIU in Figure 15);
* **sequential access**: candidate blocks are fetched in ascending docID
  order, so the SCM device sees a sequential read stream (unlike IIU's
  binary-search probes).

The match set is exact; matched documents carry the per-term frequencies
needed for BM25 scoring downstream.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.groups import GroupCursor
from repro.errors import SimulationError
from repro.sim.metrics import WorkCounters

#: A matched document: docID plus tf per contributing term.
Match = Tuple[int, Dict[str, int]]


def run_grouped_intersection(groups: Sequence[GroupCursor],
                             work: WorkCounters) -> List[Match]:
    """Intersect OR-groups: every AND the reference executor runs (an
    AND of terms is one single-member group per term; Q6 mixes both).

    Each group behaves as one merged posting stream (see
    :class:`repro.core.groups.GroupCursor`); a document matches when
    every group contains it. Groups are visited in SvS order of their
    df upper bounds. Matches carry the tfs of *every* member list that
    contains the document, so BM25 scoring is exact.
    """
    if not groups:
        raise SimulationError("intersection needs at least one group")
    ordered = sorted(groups, key=lambda g: g.document_frequency)

    matches: List[Match] = []
    driver = ordered[0]
    others = ordered[1:]
    doc = driver.current_doc()
    while doc is not None:
        work.merge_ops += 1
        candidate = doc
        in_all = True
        for group in others:
            landed = group.advance_to(candidate)
            if landed is None:
                doc = None
                in_all = False
                break
            if landed != candidate:
                # The other group jumped past the candidate: re-anchor the
                # driver at the jump target.
                doc = driver.advance_to(landed)
                in_all = False
                break
        if doc is None:
            break
        if in_all:
            tfs: Dict[str, int] = {}
            tfs.update(driver.current_tfs())
            for group in others:
                tfs.update(group.current_tfs())
            matches.append((candidate, tfs))
            driver.step()
            doc = driver.current_doc()
    work.docs_matched += len(matches)
    return matches
