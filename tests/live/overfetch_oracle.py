"""Test-only oracle: the live index's overfetch-then-filter search.

Until admission at the queue, ``SegmentedIndex.search`` asked every
segment for ``k + t`` results from an empty queue (``t`` = the segment's
tombstone count: at most ``t`` deleted documents can outrank a
survivor), dropped the tombstoned hits, kept ``k``, brute-forced the
write buffer last and sorted everything by ``(-score, docID)``.
:func:`overfetch_search` is that search, kept verbatim as the reference
the production path is pinned to: same hits bit for bit, never more
work. The one edit is the buffer's term order — query order instead of
the iteration order of a ``set`` of strings, which moved a buffered
score's last bit with the process's hash seed.

It runs over the same :class:`~repro.live.SegmentedIndex` and the same
segment engines as the production search (their caches hold decoded
blocks and score vectors, nothing a modeled number depends on).
"""

from typing import Dict, List, Set

from repro.core.query import (
    AndNode,
    QueryNode,
    TermNode,
    as_query,
    prune_query_scored,
)
from repro.core.result import ScoredDocument, SearchResult
from repro.errors import QueryError
from repro.scm.traffic import TrafficCounter
from repro.sim.metrics import WorkCounters


def overfetch_search(index, query, k: int) -> SearchResult:
    """Fan one query across segments + buffer; merge top-k exactly."""
    node = as_query(query)
    missing = [t for t in node.terms() if index.stats.df(t) <= 0]
    if missing:
        raise QueryError(f"terms not in index: {missing}")

    traffic = TrafficCounter()
    work = WorkCounters()
    interconnect = 0
    candidates: List[ScoredDocument] = []

    for segment in index.segments:
        pruned = prune_query_scored(node,
                                    lambda t, s=segment: t in s.index)
        if pruned is None:
            continue
        engine = index._engine_for(segment)
        overfetch = k + len(segment.tombstones)
        result = engine.search(pruned, k=overfetch)
        traffic.merge(result.traffic)
        work.merge(result.work)
        interconnect += result.interconnect_bytes
        live_hits = [
            hit for hit in result.hits
            if hit.doc_id not in segment.tombstones
        ]
        candidates.extend(live_hits[:k])

    candidates.extend(_buffer_hits(index, node, k))
    candidates.sort(key=lambda hit: (-hit.score, hit.doc_id))
    return SearchResult(
        query=node,
        hits=candidates[:k],
        traffic=traffic,
        work=work,
        interconnect_bytes=interconnect,
    )


def _buffer_hits(index, node: QueryNode, k: int) -> List[ScoredDocument]:
    """Brute-force the write buffer, one ``tf`` probe per (doc, term)."""
    memseg = index.memseg
    if len(memseg) == 0:
        return []
    terms = list(dict.fromkeys(node.terms()))
    per_term: Dict[str, Dict[int, int]] = {}
    for term in terms:
        per_term[term] = {
            doc_id: memseg.tf(doc_id, term)
            for doc_id in memseg.doc_ids()
            if memseg.tf(doc_id, term) > 0
        }

    def matching(n: QueryNode) -> Set[int]:
        if isinstance(n, TermNode):
            return set(per_term[n.term])
        child_sets = [matching(child) for child in n.children]
        if isinstance(n, AndNode):
            out = child_sets[0]
            for child_set in child_sets[1:]:
                out = out & child_set
            return out
        out = set()
        for child_set in child_sets:
            out |= child_set
        return out

    scorer = index.stats.scorer()
    hits = []
    for doc_id in sorted(matching(node)):
        score = sum(
            scorer.term_score(index.stats.idf(term), tf_map[doc_id], doc_id)
            for term, tf_map in per_term.items()
            if doc_id in tf_map
        )
        hits.append(ScoredDocument(doc_id, score))
    hits.sort(key=lambda hit: (-hit.score, hit.doc_id))
    return hits[:k]
