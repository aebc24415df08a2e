#!/usr/bin/env python3
"""Tour of the extensions layered over the paper's system.

Walks one corpus through four capabilities the paper defers to software
or future work:

1. **text analysis** — raw strings to index terms (stop words, stems);
2. **phrase search** — positional postings verify adjacency on top of
   the engine's intersection path;
3. **second-stage re-ranking** — the software stage after BOSS's top-k;
4. **near-real-time updates** — a live segmented index: a write buffer
   over sealed read-only segments, compacted on demand.

Run:  python examples/extensions_tour.py
"""

from repro.core import BossAccelerator, BossConfig
from repro.index import IndexBuilder
from repro.index.positions import PhraseSearcher, PositionStore
from repro.live import LiveIndexWriter
from repro.rerank import LinearReranker, TwoStageSearch
from repro.text import Analyzer

ARTICLES = [
    "The memory pool shares one coherent link with the host.",
    "Storage class memory pools trade latency for huge capacity.",
    "A pool of storage class memory scales without extra sockets.",
    "Early termination skips documents that cannot reach the top.",
    "The class schedule lists storage closets, not memory pools.",
]


def main() -> None:
    # 1. Analysis: raw text -> terms (lowercase, stops out, S-stems).
    analyzer = Analyzer()
    documents = [analyzer.analyze(text) for text in ARTICLES]
    print("analysis: first article ->", documents[0])

    builder = IndexBuilder()
    for tokens in documents:
        builder.add_document(tokens)
    index = builder.build()
    engine = BossAccelerator(index, BossConfig(k=10))

    # 2. Phrases: "storage class memory" as consecutive terms only.
    store = PositionStore.from_documents(documents)
    phrases = PhraseSearcher(engine, store)
    phrase_hits = phrases.search_phrase(
        analyzer.analyze("storage class memory"), k=5
    )
    loose_hits = engine.search('"storage" AND "class" AND "memory"')
    print(f"\nphrase 'storage class memory': docs "
          f"{[h.doc_id for h in phrase_hits.hits]} "
          f"(loose AND matches {[h.doc_id for h in loose_hits.hits]})")

    # 3. Two-stage ranking: BOSS retrieves, software re-ranks.
    pipeline = TwoStageSearch(engine, LinearReranker(), first_stage_k=10)
    reranked = pipeline.search('"memory" OR "pool"', k=3)
    print(f"\nreranked top-3 for 'memory OR pool': "
          f"{[h.doc_id for h in reranked.hits]} "
          f"({reranked.candidates} candidates rescored in "
          f"{reranked.rerank_seconds * 1e6:.1f} us of host time)")

    # 4. Live updates: the corpus is sealed into a read-only segment,
    # then a breaking article lands in the write buffer.
    live = LiveIndexWriter()
    for tokens in documents:
        live.add_document(tokens)
    live.flush()
    new_doc = analyzer.analyze(
        "Breaking: a new memory pool standard was announced today."
    )
    doc_id = live.add_document(new_doc)
    fresh = live.index.search('"memory" AND "pool"', k=5)
    print(f"\nafter adding doc {doc_id}: 'memory AND pool' finds "
          f"{[h.doc_id for h in fresh.hits]} (write buffer holds "
          f"{len(live.index.memseg)} doc)")
    live.flush()
    live.scheduler.compact_all()
    print(f"compact_all() -> one segment with {live.index.num_docs} docs, "
          f"fresh statistics")


if __name__ == "__main__":
    main()
