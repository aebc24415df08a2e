#!/usr/bin/env python3
"""Tour of the extensions layered over the paper's system.

Walks one corpus through two capabilities the paper defers to software
or future work:

1. **text analysis** — raw strings to index terms (stop words, stems);
2. **near-real-time updates** — a live segmented index: a write buffer
   over sealed read-only segments.

The software second stage after BOSS's top-k is the hybrid lane's
rerank mode (``repro-boss search --hybrid rerank``).

Run:  python examples/extensions_tour.py
"""

from repro.live import LiveIndexWriter
from repro.text import analyze

ARTICLES = [
    "The memory pool shares one coherent link with the host.",
    "Storage class memory pools trade latency for huge capacity.",
    "A pool of storage class memory scales without extra sockets.",
    "Early termination skips documents that cannot reach the top.",
    "The class schedule lists storage closets, not memory pools.",
]


def main() -> None:
    # 1. Analysis: raw text -> terms (lowercase, stops out, S-stems).
    documents = [analyze(text) for text in ARTICLES]
    print("analysis: first article ->", documents[0])

    # 2. Live updates: the corpus is sealed into a read-only segment,
    # then a breaking article lands in the write buffer.
    live = LiveIndexWriter()
    for tokens in documents:
        live.add_document(tokens)
    live.flush()
    new_doc = analyze(
        "Breaking: a new memory pool standard was announced today."
    )
    doc_id = live.add_document(new_doc)
    fresh = live.index.search('"memory" AND "pool"', k=5)
    print(f"\nafter adding doc {doc_id}: 'memory AND pool' finds "
          f"{[h.doc_id for h in fresh.hits]} (write buffer holds "
          f"{len(live.index.memseg)} doc)")


if __name__ == "__main__":
    main()
