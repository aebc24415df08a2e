"""IIU accelerator model (Heo et al., ASPLOS 2020 — the paper's [34]).

IIU is the state-of-the-art inverted-index accelerator BOSS compares
against. The paper attributes IIU's weakness on SCM to four design
properties (Sections II-D and III), each of which this model reproduces
with its own traffic signature:

1. **binary-search intersection**: membership tests probe the larger
   list by binary search, generating dependent *random* accesses — fast
   on DRAM, slow on SCM (this is why IIU gains more than BOSS from DRAM
   on Q2/Q6 in Figure 16);
2. **no union pruning**: union queries fetch and score *every* posting
   of every term ("its union algorithm ends up retrieving much more
   data from the memory than required");
3. **intermediate spills**: multi-term intersections run as iterative
   SvS passes whose intermediate lists are stored to memory and reloaded
   (``ST Inter`` / ``LD Inter`` in Figure 15) — writes hit SCM's worst
   bandwidth class;
4. **host-side top-k**: the device emits the full scored, unsorted
   result list (``ST Result``), which the host must pull across the
   shared interconnect. Following the paper's methodology, the *time* of
   host top-k selection is ignored, but its traffic is charged.

Functionally IIU returns the same top-k as BOSS (the host sorts the full
list); tests assert this equivalence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.core.query import (
    AndNode,
    OrNode,
    QueryNode,
    TermNode,
    as_query,
    push_intersections_down,
)
from repro.core.result import ScoredDocument, SearchResult
from repro.core.topk import DEFAULT_K, TopKQueue
from repro.errors import QueryError
from repro.index.index import CompressedPostingList, InvertedIndex
from repro.scm.traffic import AccessClass, AccessPattern, TrafficCounter
from repro.sim.metrics import WorkCounters

#: Bytes read per binary-search probe (one cache-line-sized touch of the
#: skip structure / block head).
PROBE_BYTES = 64

#: Bytes per intermediate entry (docID + tf).
INTERMEDIATE_ENTRY_BYTES = 8

#: Bytes per result entry (docID + score).
RESULT_ENTRY_BYTES = 8

#: Bytes of scoring metadata per evaluated document.
SCORE_METADATA_BYTES = 8


@dataclass(frozen=True)
class IIUConfig:
    """IIU device configuration (matched to BOSS where the paper does)."""

    k: int = DEFAULT_K


class IIUAccelerator:
    """Functional + traffic model of the IIU design."""

    def __init__(self, index: InvertedIndex,
                 config: Optional[IIUConfig] = None) -> None:
        self._index = index
        self._config = IIUConfig() if config is None else config

    @property
    def index(self) -> InvertedIndex:
        return self._index

    @property
    def config(self) -> IIUConfig:
        return self._config

    def search(self, query: Union[str, QueryNode],
               k: int = None) -> SearchResult:
        """Execute a query; same top-k as BOSS, IIU-shaped traffic."""
        node = as_query(query)
        missing = [t for t in node.terms() if t not in self._index]
        if missing:
            raise QueryError(f"terms not in index: {missing}")
        k = self._config.k if k is None else k

        work = WorkCounters()
        traffic = TrafficCounter()

        if isinstance(node, TermNode):
            matches = self._load_full_list(node.term, work, traffic)
        elif isinstance(node, OrNode) and all(
            isinstance(c, TermNode) for c in node.children
        ):
            matches = self._exhaustive_union(
                [c.term for c in node.children], work, traffic
            )
        elif isinstance(node, AndNode) and all(
            isinstance(c, TermNode) for c in node.children
        ):
            matches = self._iterative_intersection(
                [c.term for c in node.children], work, traffic
            )
        else:
            matches = self._mixed(node, work, traffic)

        # Score every matching document and emit the full unsorted list.
        scored = self._score_all(matches, work, traffic)
        result_bytes = RESULT_ENTRY_BYTES * len(scored)
        traffic.record(
            AccessClass.ST_RESULT,
            AccessPattern.SEQUENTIAL,
            result_bytes,
            accesses=1 if scored else 0,
        )

        # Host-side top-k: pulls the full list across the interconnect.
        topk = TopKQueue(k)
        for doc, score in scored:
            topk.offer(doc, score)
        hits = [ScoredDocument(d, s) for d, s in topk.results()]

        return SearchResult(
            query=node,
            hits=hits,
            traffic=traffic,
            work=work,
            interconnect_bytes=result_bytes,
        )

    # ------------------------------------------------------------------
    # Execution primitives
    # ------------------------------------------------------------------

    def _load_full_list(self, term: str, work: WorkCounters,
                        traffic: TrafficCounter) -> List[Tuple[int, Dict[str, int]]]:
        """Sequentially fetch and decode an entire posting list."""
        posting_list = self._index.posting_list(term)
        self._charge_full_list(posting_list, work, traffic)
        return [
            (p.doc_id, {term: p.tf}) for p in posting_list.decode_all()
        ]

    def _exhaustive_union(self, terms: List[str], work: WorkCounters,
                          traffic: TrafficCounter) -> List[Tuple[int, Dict[str, int]]]:
        """Multi-way merge over fully fetched lists — no pruning."""
        merged: Dict[int, Dict[str, int]] = {}
        total_postings = 0
        for term in terms:
            postings = self._load_full_list(term, work, traffic)
            total_postings += len(postings)
            for doc, tfs in postings:
                merged.setdefault(doc, {}).update(tfs)
        work.merge_ops += total_postings  # one merger step per posting
        work.docs_matched += len(merged)
        return sorted(merged.items())

    def _iterative_intersection(self, terms: List[str], work: WorkCounters,
                                traffic: TrafficCounter) -> List[Tuple[int, Dict[str, int]]]:
        """SvS passes with binary-search membership and spills.

        The smallest list is fully fetched as the driver; each pass
        probes the next-larger list by binary search over its blocks.
        Between passes the intermediate result is spilled to memory and
        reloaded (the paper's "unnecessary memory accesses to load/store
        intermediate data").
        """
        ordered = sorted(terms,
                         key=lambda t: self._index.posting_list(t).document_frequency)
        candidates = self._load_full_list(ordered[0], work, traffic)
        for pass_number, term in enumerate(ordered[1:]):
            if pass_number > 0:
                # Spill + reload the intermediate list around each pass.
                spill = INTERMEDIATE_ENTRY_BYTES * len(candidates)
                traffic.record(AccessClass.ST_INTER,
                               AccessPattern.SEQUENTIAL, spill,
                               accesses=max(1, len(candidates)))
                traffic.record(AccessClass.LD_INTER,
                               AccessPattern.SEQUENTIAL, spill,
                               accesses=max(1, len(candidates)))
                work.intermediate_passes += 1
            candidates = self._probe_membership(candidates, term, work,
                                                traffic)
            if not candidates:
                break
        work.docs_matched += len(candidates)
        return candidates

    def _probe_membership(self, candidates: List[Tuple[int, Dict[str, int]]],
                          term: str, work: WorkCounters,
                          traffic: TrafficCounter,
                          keep_misses: bool = False) -> List[Tuple[int, Dict[str, int]]]:
        """Binary-search each candidate against ``term``'s posting list.

        With ``keep_misses`` the candidate set is annotated rather than
        filtered — used to complete tf maps for scoring when a document
        matched through a different branch of the query.
        """
        posting_list = self._index.posting_list(term)
        blocks = posting_list.blocks
        num_blocks = len(blocks)
        probes_per_lookup = max(1, math.ceil(math.log2(num_blocks + 1)))
        decoded_blocks: Dict[int, Dict[int, int]] = {}

        survivors: List[Tuple[int, Dict[str, int]]] = []
        lasts = [b.metadata.last_doc_id for b in blocks]
        import bisect

        for doc, tfs in candidates:
            # Binary search over the block directory: the upper tree
            # levels stay cache-resident, so one uncached random touch is
            # charged per lookup; the full probe count still feeds the
            # pipeline-stall term of the timing model.
            work.probe_reads += probes_per_lookup
            traffic.record(
                AccessClass.LD_LIST,
                AccessPattern.RANDOM,
                PROBE_BYTES,
                accesses=1,
            )
            index = bisect.bisect_left(lasts, doc)
            if index >= num_blocks:
                if keep_misses:
                    survivors.append((doc, tfs))
                continue
            meta = blocks[index].metadata
            if doc < meta.first_doc_id:
                if keep_misses:
                    survivors.append((doc, tfs))
                continue
            # Fetch the target block (randomly addressed), memoized.
            block_map = decoded_blocks.get(index)
            if block_map is None:
                postings = posting_list.decode_block(index)
                block_map = {p.doc_id: p.tf for p in postings}
                decoded_blocks[index] = block_map
                work.blocks_fetched += 1
                work.postings_decoded += len(postings)
                traffic.record(
                    AccessClass.LD_LIST,
                    AccessPattern.RANDOM,
                    blocks[index].compressed_bytes,
                )
            tf = block_map.get(doc)
            if tf is not None:
                tfs[term] = tf
                survivors.append((doc, tfs))
            elif keep_misses:
                survivors.append((doc, tfs))
        return survivors

    def _mixed(self, node: QueryNode, work: WorkCounters,
               traffic: TrafficCounter) -> List[Tuple[int, Dict[str, int]]]:
        """Mixed query: evaluate OR-groups exhaustively, spill, intersect.

        For ``A AND (B OR C OR D)`` IIU materializes the union ``B∪C∪D``
        in memory (a large spill), then intersects it with ``A`` via
        binary search over the spilled array.
        """
        if isinstance(node, TermNode):
            return self._load_full_list(node.term, work, traffic)
        if isinstance(node, OrNode) and all(
            isinstance(c, TermNode) for c in node.children
        ):
            return self._exhaustive_union(
                [c.term for c in node.children], work, traffic
            )
        if not isinstance(node, AndNode):
            # OR over complex children: distribute and recurse per branch.
            # Branch results are merged, then tf maps are completed by
            # probing the untouched lists so scoring stays exact.
            dnf = push_intersections_down(node)
            branches = (
                list(dnf.children) if isinstance(dnf, OrNode) else [dnf]
            )
            merged: Dict[int, Dict[str, int]] = {}
            for branch in branches:
                for doc, tfs in self._mixed(branch, work, traffic):
                    merged.setdefault(doc, {}).update(tfs)
            matches = sorted(merged.items())
            # Complete the tf maps: BM25 scores every query term present
            # in a matching document, so probe the lists a branch did
            # not touch (annotate-only membership tests).
            for term in sorted(set(node.terms())):
                pending = [
                    (doc, tfs) for doc, tfs in matches if term not in tfs
                ]
                if pending:
                    self._probe_membership(pending, term, work, traffic,
                                           keep_misses=True)
            work.docs_matched += len(matches)
            return matches

        # AND node: materialize every child (term or OR-group), smallest
        # first, intersecting by binary search with spills between passes.
        materialized: List[List[Tuple[int, Dict[str, int]]]] = []
        plain_terms: List[str] = []
        for child in node.children:
            if isinstance(child, TermNode):
                plain_terms.append(child.term)
            else:
                group = self._exhaustive_union(
                    [t for t in child.terms()], work, traffic
                )
                spill = INTERMEDIATE_ENTRY_BYTES * len(group)
                traffic.record(AccessClass.ST_INTER,
                               AccessPattern.SEQUENTIAL, spill,
                               accesses=max(1, len(group)))
                work.intermediate_passes += 1
                materialized.append(group)

        if plain_terms:
            candidates = self._iterative_intersection(plain_terms, work,
                                                      traffic)
        else:
            candidates = materialized.pop(0)

        for group in materialized:
            spill = INTERMEDIATE_ENTRY_BYTES * len(group)
            traffic.record(AccessClass.LD_INTER,
                           AccessPattern.SEQUENTIAL, spill,
                           accesses=max(1, len(group)))
            # SvS direction: probe the larger side with the smaller one.
            if len(candidates) <= len(group):
                drivers, targets = candidates, group
            else:
                drivers, targets = group, candidates
            target_map = dict(targets)
            probes = max(1, math.ceil(math.log2(len(targets) + 1)))
            survivors = []
            for doc, tfs in drivers:
                # Binary search over the spilled array: ~2 uncached line
                # touches per lookup (leaf + one mid level); the probe
                # count feeds the stall term.
                work.probe_reads += probes
                traffic.record(AccessClass.LD_INTER,
                               AccessPattern.RANDOM,
                               2 * PROBE_BYTES, accesses=2)
                hit = target_map.get(doc)
                if hit is not None:
                    merged_tfs = dict(tfs)
                    merged_tfs.update(hit)
                    survivors.append((doc, merged_tfs))
            candidates = survivors
        work.docs_matched += len(candidates)
        return candidates

    # ------------------------------------------------------------------
    # Shared accounting
    # ------------------------------------------------------------------

    def _charge_full_list(self, posting_list: CompressedPostingList,
                          work: WorkCounters,
                          traffic: TrafficCounter) -> None:
        """Sequential fetch of every block plus the metadata array."""
        work.blocks_fetched += posting_list.num_blocks
        work.metadata_inspected += posting_list.num_blocks
        work.postings_decoded += posting_list.document_frequency
        traffic.record(
            AccessClass.LD_LIST,
            AccessPattern.SEQUENTIAL,
            posting_list.compressed_bytes + posting_list.metadata_bytes,
            accesses=posting_list.num_blocks,
        )

    def _score_all(self, matches: List[Tuple[int, Dict[str, int]]],
                   work: WorkCounters,
                   traffic: TrafficCounter) -> List[Tuple[int, float]]:
        """Score every matching document (no ET anywhere in IIU)."""
        scorer = self._index.scorer
        scored: List[Tuple[int, float]] = []
        for doc, tfs in matches:
            score = 0.0
            for term, tf in tfs.items():
                score += scorer.term_score(
                    self._index.posting_list(term).idf, tf, doc
                )
            scored.append((doc, score))
        work.docs_evaluated += len(scored)
        # Per-document scoring metadata is scattered across the huge
        # per-doc array (4 B entries, SCM 256 B access granules), so
        # these loads run at random-access bandwidth — the LD Score
        # wall that dominates IIU's union traffic in Figure 15.
        traffic.record(
            AccessClass.LD_SCORE,
            AccessPattern.RANDOM,
            SCORE_METADATA_BYTES * len(scored),
            accesses=len(scored),
        )
        return scored
