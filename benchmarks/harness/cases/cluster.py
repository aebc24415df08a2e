"""``cluster_batch``: root fan-out over four shards, batch driver."""

from __future__ import annotations

import gc
import os
import random
from time import perf_counter
from typing import Dict

from repro import BossAccelerator, BossTimingModel, IndexBuilder
from repro.batch import run_query_batch
from repro.faults import ZERO_FAULTS, make_faulty_cluster
from repro.scm.traffic import TrafficCounter
from repro.workloads import synthetic_documents
from repro.workloads.queries import QUERY_TYPES

import streams
from cases.base import K, Case, Modeled, ranking, same_up_to_ties
from method import percentile
from tracing import NULL_TRACER


class ClusterBatch(Case):
    name = "cluster_batch"
    why = ("Table II mix fanned out over a 4-shard cluster by the "
           "thread-pool batch driver: fan-out, root merge and the pool; "
           "a query waits for its slowest leaf")
    FULL = {"docs": 3000, "vocab": 200, "query_terms": 60, "shards": 4,
            "per_type": 10, "rounds": 17, "trace_rounds": 3}
    SMOKE = {"docs": 1000, "per_type": 3, "rounds": 2, "trace_rounds": 1}

    #: The pool the issue's ROADMAP item 2 finding is about: threads
    #: under the GIL, at most one per core of the 2-core box.
    workers = min(2, os.cpu_count() or 1)

    def setup(self, seed: int, tracer=NULL_TRACER) -> None:
        p = self.p
        with tracer.span("workloads.make_corpus"):
            self.documents = synthetic_documents(p["docs"], p["vocab"],
                                                 seed)
        with tracer.span("cluster.build"):
            self.cluster, _ = make_faulty_cluster(
                self.documents, p["shards"], faults=ZERO_FAULTS, k=K)
        # t0 is the most popular term by construction; popularity
        # falls off exponentially, so only the head of the vocabulary
        # is certain to occur in every seed's documents.
        vocabulary = [f"t{i}" for i in range(p["query_terms"])]
        pool = streams.typed_pool(vocabulary, QUERY_TYPES, p["per_type"])
        rng = random.Random(f"stream:{seed}")
        self.rounds = [
            [q.expression for q in rng.sample(pool, len(pool))]
            for _ in range(p["rounds"])
        ]
        self.pass_ops = len(pool)
        self.timing = BossTimingModel()
        self.run_pass(None)

    def run_pass(self, context) -> None:
        run_query_batch(self.cluster, self.rounds[0], k=K,
                        workers=self.workers)

    def modeled(self) -> Modeled:
        stream = [e for one in self.rounds for e in one]
        results = run_query_batch(self.cluster, stream, k=K,
                                  workers=self.workers).results
        traffic = TrafficCounter()
        latencies = []
        for result in results:
            traffic.merge(result.traffic)
            # A query waits for its slowest leaf.
            latencies.append(max(
                (self.timing.query_seconds(leaf)
                 for leaf in result.leaf_results if leaf is not None),
                default=self.timing.query_overhead,
            ))
        return Modeled(
            attempted=len(results),
            failed=sum(1 for r in results if r.degraded),
            latencies_us=[s * 1e6 for s in latencies],
            traffic=traffic,
            # One client, one query at a time, leaves in parallel.
            modeled_qps=len(results) / sum(latencies),
            results=results,
        )

    def check(self, modeled: Modeled) -> int:
        """Merged rankings against a monolithic index of every document."""
        builder = IndexBuilder()
        for tokens in self.documents:
            builder.add_document(tokens)
        oracle = BossAccelerator(builder.build())
        stream = [e for one in self.rounds for e in one]
        truth: Dict[str, list] = {}
        wrong = 0
        for expression, result in list(zip(stream, modeled.results))[:120]:
            if expression not in truth:
                truth[expression] = ranking(
                    oracle.search(expression, k=K).hits, digits=9)
            wrong += not same_up_to_ties(ranking(result.hits, digits=9),
                                         truth[expression])
        return wrong

    # ------------------------------------------------------------------

    def trace(self, tracer, modeled: Modeled) -> Dict[str, float]:
        out: Dict[str, float] = {}
        stream = [e for one in self.rounds[:self.p["trace_rounds"]]
                  for e in one]
        cluster = self.cluster
        gc.collect()
        start = perf_counter()
        for expression in stream:
            cluster.search(expression, k=K)
        untraced_s = perf_counter() - start
        with tracer.span("harness.replay"):
            for op_id, expression in enumerate(stream):
                with tracer.span("cluster.search", op_id):
                    cluster.search(expression, k=K)
        out["harness.trace_overhead_ratio"] = (
            tracer.total_s("harness.replay") / untraced_s)
        # Each leaf engine called directly with the sub-query the root
        # planned for it; what is left of cluster.search is the root.
        with tracer.span("harness.leaf_replay"):
            for op_id, expression in enumerate(stream):
                _, per_shard = cluster.plan(expression)
                for engine, pruned in zip(cluster.engines, per_shard):
                    if pruned is not None:
                        with tracer.span("cluster.leaf_search", op_id):
                            engine.search(pruned, k=K)
        out["workloads.make_corpus_s"] = tracer.total_s(
            "workloads.make_corpus")
        out["cluster.search_s"] = tracer.total_s("cluster.search")
        out["cluster.leaf_search_s"] = tracer.total_s(
            "cluster.leaf_search")
        out["cluster.root_self_s"] = (
            out["cluster.search_s"] - out["cluster.leaf_search_s"])
        ops = modeled.attempted
        out["cluster.shards_touched_per_op"] = sum(
            r.shards_touched for r in modeled.results) / ops
        out["cluster.root_merge_ops"] = sum(
            r.merge_ops for r in modeled.results) / ops
        out["cluster.leaf_retries"] = sum(
            r.leaf_retries for r in modeled.results)
        self._trace_batch(stream, out)
        return out

    def _trace_batch(self, stream, out) -> None:
        """The batch driver serial and pooled, same queries."""
        reports = {}
        for label, workers in (("workers1", 1),
                               ("workersN", self.workers)):
            report = run_query_batch(self.cluster, stream, k=K,
                                     workers=workers).report
            reports[label] = report
            out[f"batch.qps.{label}"] = report.queries_per_second
            out[f"batch.p95_ms.{label}"] = percentile(
                sorted(report.per_query_seconds), 0.95) * 1e3
        out["batch.parallel_efficiency"] = (
            reports["workersN"].queries_per_second
            / (self.workers * reports["workers1"].queries_per_second))
