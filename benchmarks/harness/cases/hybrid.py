"""``hybrid_rerank``: BM25 first stage, vector rescoring second."""

from __future__ import annotations

import gc
from time import perf_counter
from typing import Dict

from repro import BossAccelerator, BossSession, make_corpus, parse_query
from repro.scm.traffic import AccessClass, AccessPattern, TrafficCounter
from repro.vector.embeddings import embed_index
from repro.vector.ivf import build_ivf

import streams
from cases.base import K, Case, Modeled, ranking
from method import percentile
from tracing import NULL_TRACER, patched

#: First-stage depth of ``search_hybrid`` (its library default).
FIRST_STAGE_K = 100


class HybridRerank(Case):
    name = "hybrid_rerank"
    why = ("BM25 top-100 rescored by int8-IVF-lane embeddings: a "
           "numpy-bound vector stage stacked on the lexical engine, so "
           "lexical gains move it only by the first stage's share")
    FULL = {"preset": "ccnews-like", "scale": 0.5, "unique_per_type": 48,
            "pass_ops": 80, "rounds": 13, "trace_rounds": 3,
            "recall_queries": 64, "probe_queries": 4}
    SMOKE = {"scale": 0.05, "unique_per_type": 8, "pass_ops": 24,
             "rounds": 2, "trace_rounds": 1, "recall_queries": 8,
             "probe_queries": 2}

    def setup(self, seed: int, tracer=NULL_TRACER) -> None:
        with tracer.span("workloads.make_corpus"):
            self.corpus = make_corpus(self.p["preset"],
                                      scale=self.p["scale"])
        self.session = BossSession()
        with tracer.span("api.init"):
            self.session.init(self.corpus.index)
        with tracer.span("vector.init"):
            self.vectors = self.session.init_vectors(codec="int8")
        self.pool = streams.typed_pool(self.corpus.terms_by_df(),
                                       ("Q1", "Q3"),
                                       self.p["unique_per_type"])
        rounds = streams.zipf_stream(self.pool, self.p["pass_ops"],
                                     self.p["rounds"], seed)
        self.rounds = [[q.expression for q in one] for one in rounds]
        self.pass_ops = self.p["pass_ops"]
        self.run_pass(None)

    def run_pass(self, context) -> None:
        search = self.session.search_hybrid
        for expression in self.rounds[0]:
            search(expression, k=K, mode="rerank")

    def modeled(self) -> Modeled:
        results = [
            self.session.search_hybrid(expression, k=K, mode="rerank")
            for one in self.rounds for expression in one
        ]
        device = self.vectors.device
        vector_bytes = self.vectors.embeddings.dim * 4
        traffic = TrafficCounter()
        for result in results:
            # One stored doc vector loaded per rescored candidate.
            loads = TrafficCounter()
            loads.record(AccessClass.LD_SCORE, AccessPattern.RANDOM,
                         vector_bytes * result.candidates,
                         accesses=result.candidates)
            ledger = (
                device.service_time(result.lexical.traffic)
                + result.rerank_seconds
                + device.read_time(loads.total_bytes, AccessPattern.RANDOM)
            )
            if ledger != result.modeled_seconds:
                raise AssertionError(
                    f"{result.expression}: ledger {ledger} != modeled "
                    f"{result.modeled_seconds}")
            traffic.merge(result.lexical.traffic)
            traffic.merge(loads)
        seconds = [r.modeled_seconds for r in results]
        return Modeled(
            attempted=len(results), failed=0,
            latencies_us=[s * 1e6 for s in seconds],
            traffic=traffic,
            # One client, one query at a time.
            modeled_qps=len(results) / sum(seconds),
            results=results,
        )

    def check(self, modeled: Modeled) -> int:
        """Reference-executor top-100 rescored by exact cosine here."""
        oracle = BossAccelerator(self.corpus.index, fast_path=False)
        embeddings = self.vectors.embeddings
        stream = [e for one in self.rounds for e in one]
        truth: Dict[str, list] = {}
        wrong = 0
        for expression, result in list(zip(stream, modeled.results))[::8]:
            if expression not in truth:
                first = oracle.search(expression, k=FIRST_STAGE_K)
                query = embeddings.query_vector(
                    parse_query(expression).terms())
                scored = sorted(
                    (-float(embeddings.doc_vectors[hit.doc_id] @ query),
                     hit.doc_id) for hit in first.hits)
                truth[expression] = [(d, -s) for s, d in scored[:K]]
            wrong += ranking(result.hits) != truth[expression]
        # The ANN lane itself: probing every cluster is brute force.
        engine = self.vectors
        for query in self.pool[:self.p["probe_queries"]]:
            full = engine.search(query.expression, k=K,
                                 nprobe=engine.ivf.num_clusters)
            wrong += (ranking(full.hits)
                      != ranking(engine.brute_force(query.expression, K)))
        return wrong

    # ------------------------------------------------------------------

    def trace(self, tracer, modeled: Modeled) -> Dict[str, float]:
        out: Dict[str, float] = {}
        session, engine = self.session, self.vectors
        stream = [e for one in self.rounds[:self.p["trace_rounds"]]
                  for e in one]
        gc.collect()
        start = perf_counter()
        for expression in stream:
            session.search_hybrid(expression, k=K, mode="rerank")
        untraced_s = perf_counter() - start
        lexical = session.accelerator
        with tracer.span("harness.replay"), patched(
                lexical, "search",
                tracer.wrap("core.search", lexical.search)):
            for op_id, expression in enumerate(stream):
                with tracer.span("vector.hybrid_search", op_id):
                    session.search_hybrid(expression, k=K, mode="rerank")
        out["harness.trace_overhead_ratio"] = (
            tracer.total_s("harness.replay") / untraced_s)
        out["workloads.make_corpus_s"] = tracer.total_s(
            "workloads.make_corpus")
        out["api.init_s"] = tracer.total_s("api.init")
        out["vector.rerank_self_s"] = (
            tracer.self_times_s()["vector.hybrid_search"])

        # What init_vectors does, one stage at a time.
        with tracer.span("vector.embed_index"):
            embeddings = embed_index(session.index)
        with tracer.span("vector.build_ivf"):
            build_ivf(embeddings, codec="int8")
        out["vector.embed_index_s"] = tracer.total_s("vector.embed_index")
        out["vector.build_ivf_s"] = tracer.total_s("vector.build_ivf")

        with tracer.span("vector.search"):
            ann = [engine.search(expression, k=K)
                   for expression in self.rounds[0]]
        out["vector.search_s"] = tracer.total_s("vector.search")
        out["vector.demand_bytes_per_op"] = sum(
            r.demand_bytes for r in ann) / len(ann)
        out["vector.modeled_p99_us"] = percentile(
            sorted(r.modeled_seconds * 1e6 for r in ann), 0.99)
        with tracer.span("vector.rrf"):
            for expression in self.rounds[0]:
                session.search_hybrid(expression, k=K, mode="rrf")
        out["vector.rrf_s"] = tracer.total_s("vector.rrf")
        out["vector.recall_at_10"] = engine.recall_at_k(
            [q.expression for q in self.pool[:self.p["recall_queries"]]],
            k=K)
        return out
