#!/usr/bin/env python3
"""Memory-pool scale-out study: why search belongs next to the SCM.

Reproduces the architectural argument of Sections II-C and III-A: an
SCM pool grows capacity per node, but every node shares one CXL-class
link to the host. A host-side engine must pull posting data across that
link, so its aggregate throughput flatlines; BOSS ships only top-k
results, so it scales with node count.

Run:  python examples/pool_scaling.py
"""

from repro import (
    BossAccelerator,
    BossConfig,
    BossTimingModel,
    LuceneConfig,
    LuceneEngine,
    LuceneTimingModel,
    QuerySampler,
    make_corpus,
)
from repro.scm.pool import MemoryPool

NODE_COUNTS = (1, 2, 4, 8, 16, 32)


def main() -> None:
    corpus = make_corpus("clueweb12-like", scale=0.3)
    index = corpus.index
    sampler = QuerySampler(corpus.terms_by_df(), seed=9)
    queries = list(sampler.sample(queries_per_term_count=10))

    engines = {
        "BOSS (NDP)": (BossAccelerator(index, BossConfig(k=10)),
                       BossTimingModel()),
        "host engine": (LuceneEngine(index, LuceneConfig(k=10)),
                        LuceneTimingModel()),
    }
    executions = {
        name: [engine.search(q.expression) for q in queries]
        for name, (engine, _model) in engines.items()
    }

    print(f"{'nodes':>6}{'capacity':>10}"
          + "".join(f"{name:>16}" for name in engines)
          + f"{'BW/capacity':>14}")
    for nodes in NODE_COUNTS:
        pool = MemoryPool(nodes=nodes)
        row = [f"{nodes:>6}", f"{pool.capacity >> 40:>8}TB"]
        for name, (_engine, model) in engines.items():
            report = model.batch(executions[name], 8)
            if name.startswith("BOSS"):
                # One BOSS device per node: compute and device bandwidth
                # scale with the pool; only the result traffic shares
                # the host link.
                per_pool = max(
                    max(report.compute_seconds, report.memory_seconds),
                    nodes * report.interconnect_seconds,
                )
            else:
                # The host's CPU cores are FIXED: every shard's work
                # lands on the same 8 cores, and every posting byte
                # crosses the one shared link.
                per_pool = max(
                    nodes * report.compute_seconds,
                    max(report.memory_seconds,
                        nodes * report.interconnect_seconds),
                )
            qps = nodes * len(queries) / per_pool
            row.append(f"{qps:>16.0f}")
        row.append(f"{pool.bandwidth_to_capacity_ratio:>14.2e}")
        print("".join(row))

    print("\nthe host engine flatlines (fixed CPU cores, one shared "
          "link);\nonly the NDP design converts each node's internal "
          "bandwidth into throughput.")


if __name__ == "__main__":
    main()
