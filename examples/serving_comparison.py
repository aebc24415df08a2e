#!/usr/bin/env python3
"""Serving-system comparison: BOSS vs IIU vs Lucene on one shard.

The scenario the paper's introduction motivates: a web-search leaf node
whose shard lives in SCM-based pooled memory. This example builds a
CC-News-like synthetic shard, runs the paper's Table II query mix on
all three engines, verifies they return identical top-k results, and
reports the modeled throughput, bandwidth, bottleneck, and energy at
the paper's 8-core operating point.

Run:  python examples/serving_comparison.py
"""

from collections import defaultdict

from repro import (
    BossAccelerator,
    BossConfig,
    BossTimingModel,
    IIUAccelerator,
    IIUConfig,
    IIUTimingModel,
    LuceneConfig,
    LuceneEngine,
    LuceneTimingModel,
    QuerySampler,
    make_corpus,
)
from repro.hwmodel.energy import EnergyModel

K = 10
QUERIES_PER_BUCKET = 25


def main() -> None:
    print("building ccnews-like shard (synthetic, see DESIGN.md)...")
    corpus = make_corpus("ccnews-like", scale=0.5)
    index = corpus.index
    print(f"  {index.stats.num_docs} docs, {index.num_terms} terms, "
          f"{index.compressed_bytes >> 10} KiB compressed")

    engines = {
        "BOSS": BossAccelerator(index, BossConfig(k=K)),
        "IIU": IIUAccelerator(index, IIUConfig(k=K)),
        "Lucene": LuceneEngine(index, LuceneConfig(k=K)),
    }
    models = {
        "BOSS": BossTimingModel(),
        "IIU": IIUTimingModel(),
        "Lucene": LuceneTimingModel(),
    }

    sampler = QuerySampler(corpus.terms_by_df(), seed=1)
    queries = list(sampler.sample(QUERIES_PER_BUCKET))
    print(f"  {len(queries)} queries (Table II mix)\n")

    executions = defaultdict(list)
    mismatches = 0
    for query in queries:
        reference = None
        for name, engine in engines.items():
            result = engine.search(query.expression)
            executions[name].append(result)
            hits = [(h.doc_id, round(h.score, 8)) for h in result.hits]
            if reference is None:
                reference = hits
            elif hits != reference:
                mismatches += 1
    print(f"functional check: {mismatches} mismatching queries "
          f"(must be 0 — all engines return the same top-k)\n")

    energy_model = EnergyModel()
    lucene_report = models["Lucene"].batch(executions["Lucene"], 8)
    print(f"{'engine':<8}{'qps':>10}{'speedup':>9}{'GB/s':>7}"
          f"{'bottleneck':>12}{'mJ/query':>10}")
    for name in ("Lucene", "IIU", "BOSS"):
        report = models[name].batch(executions[name], 8)
        energy = energy_model.energy(report)
        print(f"{name:<8}{report.throughput_qps:>10.0f}"
              f"{report.throughput_qps / lucene_report.throughput_qps:>8.1f}x"
              f"{report.avg_bandwidth / 1e9:>7.2f}"
              f"{report.bottleneck:>12}"
              f"{1000 * energy.energy_joules / len(queries):>10.3f}")

    boss_energy = energy_model.energy(models["BOSS"].batch(
        executions["BOSS"], 8))
    lucene_energy = energy_model.energy(lucene_report)
    print(f"\nenergy savings BOSS vs Lucene: "
          f"{boss_energy.savings_over(lucene_energy):.0f}x "
          f"(paper reports 189x at full scale)")


if __name__ == "__main__":
    main()
