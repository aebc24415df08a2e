"""The two single-engine closed-loop workloads.

``union_zipf_warm`` and ``table2_mix_cold`` drive one
:class:`~repro.api.BossSession` with one client. They differ in what
the decoded-block cache sees — a warm Zipf log of union queries against
a fresh session per pass of the paper's whole Table II mix — and so in
which layer does the work: executor, top-k and API on the first;
decompression, intersection and the mmap index on the second.
"""

from __future__ import annotations

import gc
import os
import random
from time import perf_counter
from typing import Dict, List

from repro import (
    BossAccelerator,
    BossSession,
    BossTimingModel,
    IIUAccelerator,
    IIUConfig,
    IIUTimingModel,
    LuceneConfig,
    LuceneEngine,
    LuceneTimingModel,
    NULL_OBSERVER,
    RecordingObserver,
    make_corpus,
    open_index,
    parse_query,
    save_index_binary,
)
from repro.core.engine import EXECUTORS
from repro.index.blocks import build_block
from repro.observability import build_trace
from repro.scm.traffic import TrafficCounter
from repro.workloads.queries import QUERY_TYPES

import streams
from cases.base import K, Case, Modeled, ranking
from tracing import NULL_TRACER, patched

#: The paper's headline: BOSS over 8-core Lucene, geomean of Q1-Q6.
PAPER_SPEEDUP = 8.1


def geomean(values) -> float:
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))


class SessionCase(Case):
    """Closed loop, one client, ``session.search`` per operation."""

    def setup(self, seed: int, tracer=NULL_TRACER) -> None:
        with tracer.span("workloads.make_corpus"):
            self.corpus = make_corpus(self.p["preset"],
                                      scale=self.p["scale"])
        self.index_source = self._publish_index(tracer)
        self.session = self._open_session(tracer)
        self.rounds = self._stream(seed)
        self.pass_ops = len(self.rounds[0])
        self.timing = BossTimingModel()
        self.run_pass(self._pass_session())

    def _publish_index(self, tracer):
        """What sessions are initialised from (an index or a path)."""
        return self.corpus.index

    def _open_session(self, tracer=NULL_TRACER) -> BossSession:
        session = BossSession()
        with tracer.span("api.init"):
            session.init(self.index_source)
        return session

    def _stream(self, seed: int) -> List[List[streams.Query]]:
        raise NotImplementedError

    def _pass_session(self) -> BossSession:
        """The session a pass runs on: the warm one, or a fresh one."""
        return self.prepare_pass() if self.prepare_pass else self.session

    def run_pass(self, context) -> None:
        search = (self.session if context is None else context).search
        for query in self.rounds[0]:
            search(query.expression, k=K)

    def _run_rounds(self, rounds) -> list:
        """The operations of ``rounds``, as the host phase runs them."""
        results = []
        for one in rounds:
            search = self._pass_session().search
            results.extend(search(q.expression, k=K) for q in one)
        return results

    def modeled(self) -> Modeled:
        results = self._run_rounds(self.rounds)
        traffic = TrafficCounter()
        for result in results:
            traffic.merge(result.traffic)
        return Modeled(
            attempted=len(results), failed=0,
            latencies_us=[
                self.timing.query_seconds(r) * 1e6 for r in results
            ],
            traffic=traffic,
            modeled_qps=self.timing.batch(results).throughput_qps,
            results=results,
        )

    def check(self, modeled: Modeled) -> int:
        """Every tenth operation against the reference executor."""
        oracle = BossAccelerator(self.corpus.index, fast_path=False)
        stream = [q for one in self.rounds for q in one]
        truth: Dict[str, list] = {}
        wrong = 0
        for query, result in list(zip(stream, modeled.results))[::10]:
            if query.expression not in truth:
                truth[query.expression] = ranking(
                    oracle.search(query.expression, k=K).hits
                )
            wrong += ranking(result.hits) != truth[query.expression]
        return wrong

    # ------------------------------------------------------------------
    # Traced replay
    # ------------------------------------------------------------------

    def trace(self, tracer, modeled: Modeled) -> Dict[str, float]:
        out: Dict[str, float] = {}
        rounds = self.rounds[:self.p["trace_rounds"]]
        gc.collect()
        start = perf_counter()
        self._run_rounds(rounds)
        untraced_s = perf_counter() - start

        stream = [q for one in rounds for q in one]
        decoded: List[tuple] = []
        hits = misses = 0
        with tracer.span("harness.replay"):
            op_id = 0
            for one in rounds:
                with tracer.span("harness.prepare_pass"):
                    session = self._pass_session()
                engine = session.accelerator
                cache = engine.decoded_cache
                put = cache.put

                def logging_put(term, block, scheme, arrays, put=put):
                    decoded.append((term, block))
                    put(term, block, scheme, arrays)

                hits -= cache.hits
                misses -= cache.misses
                with patched(engine, "search",
                             tracer.wrap("core.search", engine.search)), \
                        patched(cache, "put", logging_put):
                    for query in one:
                        with tracer.span("api.search", op_id):
                            session.search(query.expression, k=K)
                        op_id += 1
                hits += cache.hits
                misses += cache.misses
            for op_id, query in enumerate(stream):
                with tracer.span("core.parse_query", op_id):
                    parse_query(query.expression)
        if len(decoded) != misses:
            raise AssertionError(
                f"{len(decoded)} blocks decoded, {misses} cache misses"
            )
        out["harness.trace_overhead_ratio"] = (
            tracer.total_s("harness.replay")
            - tracer.total_s("core.parse_query")
        ) / untraced_s
        out["workloads.make_corpus_s"] = tracer.total_s(
            "workloads.make_corpus")
        out["api.init_s"] = tracer.total_s("api.init")
        out["api.search_self_s"] = tracer.self_times_s()["api.search"]
        out["core.search_s"] = tracer.total_s("core.search")
        out["core.parse_query_s"] = tracer.total_s("core.parse_query")
        by_type = {q.qtype: 0.0 for q in stream}
        for span in tracer.spans:
            if span.name == "core.search":
                by_type[stream[span.op_id].qtype] += span.duration_ns / 1e9
        for qtype, seconds in by_type.items():
            out[f"core.search_s.{qtype}"] = seconds
        out["cache.decoded_hit_rate"] = hits / (hits + misses)
        out["cache.decoded_misses"] = misses

        self._trace_decode(tracer, decoded, out)
        self._trace_executors(tracer, out)
        self._work_counts(modeled, out)
        self._trace_sim(tracer, modeled, out)
        self._trace_observer(tracer, out)
        return out

    def _trace_decode(self, tracer, decoded, out) -> None:
        """Decode, then re-encode, exactly the blocks the replay
        decoded (contained in ``core.search_s``, not additive)."""
        index = self.session.index
        with tracer.span("compression.decode_replay"):
            for term, block in decoded:
                index.posting_list(term).decode_block_arrays(block)
        postings = [
            (index.posting_list(term), block,
             index.posting_list(term).decode_block(block))
            for term, block in decoded
        ]
        with tracer.span("compression.encode"):
            for plist, block, run in postings:
                meta = plist.blocks[block].metadata
                build_block(run, plist.codec, meta.max_term_score,
                            meta.offset)
        out["compression.decode_replay_s"] = tracer.total_s(
            "compression.decode_replay")
        out["compression.decode_replay_blocks"] = len(decoded)
        out["compression.encode_s"] = tracer.total_s("compression.encode")

    def _trace_executors(self, tracer, out) -> None:
        """Round 0 on each executor, forced on a bare accelerator."""
        for executor in EXECUTORS:
            engine = BossAccelerator(self.corpus.index, executor=executor)
            if self.prepare_pass is None:  # a warm workload
                for query in self.rounds[0]:
                    engine.search(query.expression, k=K)
            name = f"core.search.{executor}"
            with tracer.span(name):
                for query in self.rounds[0]:
                    engine.search(query.expression, k=K)
            out[f"core.search_s.{executor}"] = tracer.total_s(name)

    @staticmethod
    def _work_counts(modeled: Modeled, out) -> None:
        ops = modeled.attempted
        works = [r.work for r in modeled.results]
        for counter in ("blocks_fetched", "blocks_skipped_et",
                        "blocks_skipped_overlap", "postings_decoded",
                        "docs_evaluated", "merge_ops", "topk_inserts"):
            out[f"core.{counter}"] = sum(
                getattr(w, counter) for w in works) / ops
        out["core.block_skip_ratio"] = (
            sum(w.blocks_skipped for w in works)
            / sum(w.blocks_considered for w in works)
        )

    def _trace_sim(self, tracer, modeled: Modeled, out) -> None:
        with tracer.span("sim.timing"):
            report = self.timing.batch(modeled.results)
            for result in modeled.results:
                self.timing.query_seconds(result)
        out["sim.timing_s"] = tracer.total_s("sim.timing")
        bounds = (report.compute_seconds + report.memory_seconds
                  + report.interconnect_seconds)
        out["sim.compute_share"] = report.compute_seconds / bounds
        out["sim.memory_share"] = report.memory_seconds / bounds
        out["sim.interconnect_share"] = (
            report.interconnect_seconds / bounds)

    def _trace_observer(self, tracer, out) -> None:
        """Round 0 with the recording observer against the null one."""
        seconds = {}
        for label, observer in (("null", NULL_OBSERVER),
                                ("recording", RecordingObserver())):
            session = BossSession(observer=observer)
            session.init(self.index_source)
            for query in self.rounds[0]:
                session.search(query.expression, k=K)
            with tracer.span(f"observability.{label}"):
                results = [session.search(q.expression, k=K)
                           for q in self.rounds[0]]
            seconds[label] = tracer.total_s(f"observability.{label}")
        out["observability.recording_overhead_ratio"] = (
            seconds["recording"] / seconds["null"])
        with tracer.span("observability.build_trace"):
            for query_id, result in enumerate(results):
                build_trace(self.timing, result, query_id=query_id)
        out["observability.build_trace_s"] = tracer.total_s(
            "observability.build_trace")


class UnionZipfWarm(SessionCase):
    name = "union_zipf_warm"
    why = ("Zipf log of union queries on a warm in-memory session: the "
           "decoded-block cache hits ~99%, so executor, top-k and API do "
           "the work and decompression does almost none")
    FULL = {"preset": "ccnews-like", "scale": 1.0, "unique_per_type": 32,
            "pass_ops": 200, "rounds": 5, "trace_rounds": 3}
    SMOKE = {"scale": 0.05, "unique_per_type": 8, "pass_ops": 40,
             "rounds": 3, "trace_rounds": 1}

    def _stream(self, seed):
        pool = streams.typed_pool(self.corpus.terms_by_df(),
                                  ("Q1", "Q3", "Q5"),
                                  self.p["unique_per_type"])
        return streams.zipf_stream(pool, self.p["pass_ops"],
                                   self.p["rounds"], seed)


class Table2MixCold(SessionCase):
    name = "table2_mix_cold"
    why = ("the paper's Table II mix, unique queries, mmap-served, fresh "
           "session every pass: every block's first touch decodes and "
           "intersections run; the cache is bypassed")
    FULL = {"preset": "clueweb12-like", "scale": 0.6, "per_type": 25,
            "rounds": 7, "pool_rounds": 14, "trace_rounds": 3,
            "baseline_rounds": 4}
    SMOKE = {"scale": 0.05, "per_type": 5, "rounds": 3, "pool_rounds": 6,
             "trace_rounds": 1, "baseline_rounds": 1}

    def _publish_index(self, tracer):
        self.path = os.path.join(self.workdir, f"{self.name}.bossx")
        with tracer.span("index.save_binary"):
            save_index_binary(self.corpus.index, self.path)
        return self.path

    def _open_session(self, tracer=NULL_TRACER) -> BossSession:
        with tracer.span("index.open_mmap"):
            index = open_index(self.path)
        session = BossSession()
        with tracer.span("api.init"):
            session.init(index)
        return session

    def prepare_pass(self) -> BossSession:
        session = BossSession()
        session.init(self.path)
        return session

    def _stream(self, seed):
        """Equal shares of the six types in every round. Round 0 is the
        head of each type's pool; the seed deals the rest of the pool
        into the later rounds, so no pool entry is used twice."""
        per_type, rounds = self.p["per_type"], self.p["rounds"]
        pool = streams.typed_pool(self.corpus.terms_by_df(), QUERY_TYPES,
                                  per_type * self.p["pool_rounds"])
        rng = random.Random(f"stream:{seed}")
        dealt = {}
        for qtype in QUERY_TYPES:
            queries = [q for q in pool if q.qtype == qtype]
            rest = queries[per_type:]
            rng.shuffle(rest)
            dealt[qtype] = queries[:per_type] + rest
        out = []
        for j in range(rounds):
            one = [q for qtype in QUERY_TYPES
                   for q in dealt[qtype][j * per_type:(j + 1) * per_type]]
            rng.shuffle(one)
            out.append(one)
        return out

    def close(self) -> None:
        if os.path.exists(self.path):
            os.remove(self.path)

    def trace(self, tracer, modeled):
        out = super().trace(tracer, modeled)
        out["index.save_binary_s"] = tracer.total_s("index.save_binary")
        out["index.open_mmap_s"] = tracer.total_s("index.open_mmap")
        out["index.file_bytes"] = os.path.getsize(self.path)
        self._trace_baselines(tracer, modeled, out)
        return out

    def _trace_baselines(self, tracer, modeled, out) -> None:
        """The first ``baseline_rounds`` rounds (100 queries a type, the
        paper's batch) on the Lucene and IIU models: the paper's own
        experiment, so the accuracy metric lives here."""
        stream = [q for one in self.rounds[:self.p["baseline_rounds"]]
                  for q in one]
        index = self.corpus.index
        lucene = LuceneEngine(index, LuceneConfig(k=K))
        iiu = IIUAccelerator(index, IIUConfig(k=K))
        with tracer.span("baselines.lucene_search"):
            lucene_results = [lucene.search(q.expression) for q in stream]
        with tracer.span("baselines.iiu_search"):
            iiu_results = [iiu.search(q.expression) for q in stream]
        out["baselines.lucene_search_s"] = tracer.total_s(
            "baselines.lucene_search")
        out["baselines.iiu_search_s"] = tracer.total_s(
            "baselines.iiu_search")

        def per_type_qps(model, results):
            return [
                model.batch([r for q, r in zip(stream, results)
                             if q.qtype == t]).throughput_qps
                for t in QUERY_TYPES
            ]

        boss = per_type_qps(self.timing, modeled.results)
        vs_lucene = geomean([
            b / l for b, l in
            zip(boss, per_type_qps(LuceneTimingModel(), lucene_results))
        ])
        out["sim.speedup_vs_lucene"] = vs_lucene
        out["sim.speedup_vs_iiu"] = geomean([
            b / i for b, i in
            zip(boss, per_type_qps(IIUTimingModel(), iiu_results))
        ])
        out["sim.paper_speedup_rel_err"] = (
            abs(vs_lucene - PAPER_SPEEDUP) / PAPER_SPEEDUP)
