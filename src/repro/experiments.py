"""The paper's evaluation: every figure and table, from one module.

Each entry of :data:`FIGURES` regenerates one of Figs. 3, 9–17 and Table
III (or an extension study DESIGN.md lists) as rows computed from one
shared :class:`Evaluation`, and pairs its headline numbers with the
paper's. Every number is a pure function of the seeds, so the output is
committed and gated byte for byte (``tests/test_experiments.py``)::

    python -m repro.experiments           # print every table
    python -m repro.experiments --write   # rewrite benchmarks/results.txt
                                          # and EXPERIMENTS.md's Headline

There is one configuration, the one the committed tables were made with.
``K`` is scaled with the laptop-scale corpora: the paper pairs k=1000 with
lists of millions of postings; k=10 with lists of tens of thousands keeps
the k-to-block-count ratio, which governs early termination, in its regime.
"""

from __future__ import annotations

import argparse
import math
import re
from collections import Counter
from dataclasses import replace
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy

from repro.baselines import IIUAccelerator, IIUConfig, LuceneConfig, LuceneEngine
from repro.compression import HybridSelector, deltas_from_doc_ids
from repro.compression.hybrid import PAPER_SCHEMES
from repro.core import BossAccelerator, BossConfig
from repro.core.engine import recording_fetches
from repro.hwmodel import EnergyModel, area_power
from repro.ioplanner.tier import (
    DramTier, replay_fetches, replay_seconds, uncached_memory_seconds)
from repro.observability import (
    ALL_STAGES, aggregate_stage_seconds, batch_bottleneck, build_trace)
from repro.scm import DDR4_4CH, AccessClass, MemoryPool
from repro.serving import (
    QueryServer, ServingConfig, TraceArrivals, build_requests)
from repro.sim import (
    BossCoreSimulator, BossTimingModel, IIUTimingModel, LuceneTimingModel)
from repro.workloads import SYNTHETIC_STREAMS, QuerySampler, make_corpus

SCALE = 1.0               #: corpus scale factor (≈ 50–60 k documents)
QUERIES_PER_BUCKET = 100  #: per term-count bucket (the paper: 100 -> 300)
K = 10                    #: top-k, scaled with the corpus (module docstring)
SAMPLER_SEED = 5

QUERY_TYPES = ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6")
UNION_TYPES = ("Q1", "Q3", "Q5")
CORE_COUNTS = (1, 2, 4, 8)
TRAFFIC_CLASSES = tuple(AccessClass)[:5]  # Fig. 15's five; not ST Index

_ROOT = Path(__file__).resolve().parents[2]
RESULTS_PATH = _ROOT / "benchmarks" / "results.txt"
EXPERIMENTS_PATH = _ROOT / "EXPERIMENTS.md"
#: EXPERIMENTS.md's generated block, marker comments included.
_HEADLINE = re.compile(r"<!-- headline:begin .*?<!-- headline:end -->", re.S)


def timing_models(**kwargs) -> Dict[str, object]:
    """One timing model per engine variant (``device=`` re-times all)."""
    boss = BossTimingModel(**kwargs)
    return {"BOSS": boss, "BOSS-exhaustive": boss, "BOSS-block-only": boss,
            "IIU": IIUTimingModel(**kwargs),
            "Lucene": LuceneTimingModel(**kwargs)}


class Workload:
    """One preset corpus plus every engine's executions of the batch."""

    def __init__(self, preset: str) -> None:
        self.corpus = make_corpus(preset, scale=SCALE)
        index = self.index = self.corpus.index
        config = BossConfig(k=K)
        engines = {
            "BOSS": BossAccelerator(index, config),
            "BOSS-exhaustive": BossAccelerator(index, config.exhaustive()),
            "BOSS-block-only": BossAccelerator(index, config.block_only()),
            "IIU": IIUAccelerator(index, IIUConfig(k=K)),
            "Lucene": LuceneEngine(index, LuceneConfig(k=K)),
        }
        sampler = QuerySampler(self.corpus.terms_by_df(), seed=SAMPLER_SEED)
        self.queries = list(sampler.sample(QUERIES_PER_BUCKET))
        self._executions = {
            name: [(q.qtype, engine.search(q.expression))
                   for q in self.queries]
            for name, engine in engines.items()}

    def results_of(self, engine: str, qtype: Optional[str] = None) -> list:
        """The engine's results, grouped in query-type order."""
        types = QUERY_TYPES if qtype is None else (qtype,)
        return [result for wanted in types
                for qt, result in self._executions[engine] if qt == wanted]

    def queries_of(self, *qtypes: str) -> list:
        return [q for q in self.queries if q.qtype in qtypes]

    def fetch_traces(self, queries) -> List[Tuple[object, list]]:
        """``(result, fetch records)`` per query, on a fresh BOSS engine."""
        engine = BossAccelerator(self.index, BossConfig(k=K))
        traces = []
        for query in queries:
            with recording_fetches() as fetches:
                result = engine.search(query.expression)
            traces.append((result, fetches.get(engine, [])))
        return traces


class Figure(NamedTuple):
    """``columns`` is ``"label|template;..."``, a ``str.format`` template
    per cell; ``compute(evaluation)`` returns rows — tuples of cells, or
    strings printed as they are (section lines, notes); ``headline(rows)``
    maps each headline name to ``(measured, the paper's value)``."""

    title: str
    columns: str
    compute: Callable[["Evaluation"], list]
    headline: Callable[[list], Dict[str, Tuple[float, float]]]


#: key -> figure, in the order ``results.txt`` prints them.
FIGURES: Dict[str, Figure] = {}


def figure(key: str, title: str, columns: str, headline=lambda _rows: {}):
    """Register the decorated ``compute`` under ``key``."""
    def register(compute):
        FIGURES[key] = Figure(title, columns, compute, headline)
        return compute
    return register


def format_rows(columns: str, rows: list) -> List[str]:
    """The header (labels aligned to the width their template renders a
    number at) and one line per row: the one row formatter."""
    pairs = [column.split("|") for column in columns.split(";")]
    header = "".join(
        (label.ljust if "<" in template else label.rjust)(
            len(template.format(0)))
        for label, template in pairs)
    return [header.rstrip()] + [
        row if isinstance(row, str) else "".join(
            template.format(cell) for (_, template), cell in zip(pairs, row))
        for row in rows]


def _cols(labels, template: str) -> str:
    return "".join(f";{label}|{template}" for label in labels)


def find(rows: list, *key) -> tuple:
    """The first row whose leading cells equal ``key``."""
    return next(r for r in rows if tuple(r[:len(key)]) == key)


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(map(math.log, values)) / len(values))


def dram_gain(rows: list, engine: str) -> float:
    """Fig. 16: an engine's summed DRAM throughput over its SCM one."""
    return (sum(find(rows, engine, "DRAM")[2:])
            / sum(find(rows, engine, "SCM")[2:]))


def _multicore_headline(boss_paper: float, iiu_paper: float, rows: list):
    return {"boss_vs_lucene8": (find(rows, "BOSS", 8)[-1], boss_paper),
            "iiu_vs_lucene8": (find(rows, "IIU", 8)[-1], iiu_paper)}


def _table3_headline(rows: list):
    device, core = (r for r in rows if r[0] == "total")
    return {"core_area_mm2": (core[2], area_power.PAPER_CORE_AREA_MM2),
            "core_power_mw": (core[3], area_power.PAPER_CORE_POWER_MW),
            "device_area_mm2": (device[2], area_power.PAPER_DEVICE_AREA_MM2),
            "device_power_w": (device[3] / 1000.0,
                               area_power.PAPER_DEVICE_POWER_W),
            "power_advantage": (
                area_power.CPU_PACKAGE_POWER_W / (device[3] / 1000.0), 23.3)}


_PER_TYPE = _cols(QUERY_TYPES, "{:>8.2f}")
_PER_CORE = "engine|{:<8};cores|{:>6}" + _PER_TYPE


class Evaluation:
    """Both corpora, every engine executed once, and a method per figure."""

    def __init__(self) -> None:
        self.models = timing_models()
        self.clueweb = Workload("clueweb12-like")
        self.ccnews = Workload("ccnews-like")
        self._rows: Dict[str, list] = {}

    def rows(self, key: str) -> list:  # computed once
        if key not in self._rows:
            self._rows[key] = FIGURES[key].compute(self)
        return self._rows[key]

    def report(self, workload, engine, qtype=None, cores=8, models=None):
        """The batch throughput report of one engine / type / core count."""
        return (models or self.models)[engine].batch(
            workload.results_of(engine, qtype), cores)

    def vs_lucene(self, workload, engine, cores, *, lucene_cores=8,
                  models=None) -> List[float]:
        """Throughput per query type over Lucene's (always on SCM)."""
        return [
            self.report(workload, engine, qt, cores, models).throughput_qps
            / self.report(workload, "Lucene", qt, lucene_cores).throughput_qps
            for qt in QUERY_TYPES]

    @figure("fig03", "Figure 3: compression ratio (higher is better)",
            "stream|{:<16}" + _cols((*PAPER_SCHEMES, "Hybrid"), "{:>9.2f}")
            + ";|   best={}")
    def _fig03(self):
        """Ratio = 4 B/int raw over encoded size, summed over the streams
        of a row; Hybrid takes the best scheme per stream."""
        selector = HybridSelector()

        def row(name, streams):
            picks = [selector.select(stream) for stream in streams]
            raw = sum(4 * len(stream) for stream in streams)
            sizes = [sum(p.sizes[s] for p in picks) for s in PAPER_SCHEMES]
            return (name, *(raw / size for size in sizes),
                    raw / sum(p.size for p in picks),
                    PAPER_SCHEMES[sizes.index(min(sizes))])

        # Ratio is length-invariant: 200 k integers stand for the 10 M.
        rows = [row(name, [generator(200_000)])
                for name, generator in sorted(SYNTHETIC_STREAMS.items())]
        for workload in (self.clueweb, self.ccnews):  # top-60 d-gap lists
            rows.append(row(workload.corpus.spec.name, [
                deltas_from_doc_ids([
                    p.doc_id
                    for p in workload.index.posting_list(term).decode_all()])
                for term in workload.corpus.terms_by_df()[:60]]))
        return rows

    def _multicore(self, corpus: str):
        rows = []
        for engine in ("IIU", "BOSS"):
            for cores in CORE_COUNTS:
                values = self.vs_lucene(getattr(self, corpus), engine, cores)
                rows.append((engine, cores, *values, geomean(values)))
        return rows

    def _bandwidth(self, corpus: str):
        return [(engine, cores, *(
            self.report(getattr(self, corpus), engine, qt, cores)
            .avg_bandwidth / 10 ** 9 for qt in QUERY_TYPES))
            for engine in ("IIU", "BOSS") for cores in CORE_COUNTS]

    figure("fig09", "Figure 9: throughput vs Lucene-8 (ClueWeb12-like)",
           _PER_CORE + ";geomean|{:>9.2f}",
           partial(_multicore_headline, 7.54, 1.69),
           )(partial(_multicore, corpus="clueweb"))
    figure("fig10", "Figure 10: throughput vs Lucene-8 (CC-News-like)",
           _PER_CORE + ";geomean|{:>9.2f}",
           partial(_multicore_headline, 8.7, 1.75),
           )(partial(_multicore, corpus="ccnews"))
    figure("fig11", "Figure 11: bandwidth utilization GB/s (ClueWeb12-like)",
           _PER_CORE)(partial(_bandwidth, corpus="clueweb"))
    figure("fig12", "Figure 12: bandwidth utilization GB/s (CC-News-like)",
           _PER_CORE)(partial(_bandwidth, corpus="ccnews"))

    @figure("fig13",
            "Figure 13: single-core throughput vs Lucene-1 (CC-News-like)",
            "engine|{:<16}" + _PER_TYPE)
    def _fig13(self):
        rows = [(engine, *self.vs_lucene(self.ccnews, engine, 1,
                                         lucene_cores=1))
                for engine in ("Lucene", "IIU", "BOSS-exhaustive", "BOSS")]
        return rows + [("ET gain", *(boss / exhaustive for boss, exhaustive
                                     in zip(rows[3][1:], rows[2][1:])))]

    @figure("fig14", "Figure 14: evaluated documents normalized to IIU (=1.0)",
            "variant|{:<18}" + _cols(UNION_TYPES, "{:>8.2f}"))
    def _fig14(self):
        def evaluated(engine, qt):
            return sum(r.work.docs_evaluated
                       for r in self.ccnews.results_of(engine, qt))

        return [(variant, *(evaluated(variant, qt) / evaluated("IIU", qt)
                            for qt in UNION_TYPES))
                for variant in ("BOSS-block-only", "BOSS")]

    def class_bytes(self, engine: str, qtype: str) -> Dict[AccessClass, int]:
        """Per-class byte totals of the query type's traces (CC-News-like):
        the observability layer's attribution, not the raw counters."""
        totals = Counter()
        for result in self.ccnews.results_of(engine, qtype):
            totals.update(build_trace(self.models[engine], result,
                                      engine=engine).bytes_by_class())
        return {cls: totals[cls.value] for cls in TRAFFIC_CLASSES}

    @figure("fig15",
            "Figure 15: memory traffic by class, normalized to IIU total",
            "qtype|{:<7};engine|{:<7}" + _cols(
                [cls.value for cls in TRAFFIC_CLASSES] + ["total"],
                "{:>11.3f}"))
    def _fig15(self):
        rows = []
        for qt in QUERY_TYPES:
            cells = {e: self.class_bytes(e, qt) for e in ("IIU", "BOSS")}
            iiu_total = sum(cells["IIU"].values())
            rows += [(qt, engine, *(cells[engine][cls] / iiu_total
                                    for cls in TRAFFIC_CLASSES),
                      sum(cells[engine].values()) / iiu_total)
                     for engine in ("IIU", "BOSS")]
        return rows

    @figure("fig16", "Figure 16: DRAM vs SCM, normalized to Lucene-8 on SCM",
            "engine|{:<8};memory|{:<7}" + _PER_TYPE,
            lambda rows: {"iiu_dram_gain": (dram_gain(rows, "IIU"), 3.29),
                          "boss_dram_gain": (dram_gain(rows, "BOSS"), 2.31)})
    def _fig16(self):
        engines = ("Lucene", "IIU", "BOSS")
        devices = (("SCM", self.models),
                   ("DRAM", timing_models(device=DDR4_4CH)))
        rows = [(engine, device,
                 *self.vs_lucene(self.ccnews, engine, 8, models=models))
                for engine in engines for device, models in devices]
        return rows + ["DRAM/SCM gains: " + ", ".join(
            f"{e}={dram_gain(rows, e):.2f}x" for e in engines)]

    @figure("fig17", "Figure 17: energy, BOSS vs Lucene (8 cores)",
            "qtype|{:<7};BOSS J|{:>12.6f};Lucene J|{:>12.6f}"
            ";savings|{:>9.1f}x",
            lambda rows: {"energy_savings": (
                geomean(row[3] for row in rows[:-1]), 189.0)})
    def _fig17(self):
        model = EnergyModel()
        rows = []
        for qt in QUERY_TYPES:
            boss = model.energy(self.report(self.ccnews, "BOSS", qt))
            lucene = model.energy(self.report(self.ccnews, "Lucene", qt))
            rows.append((qt, boss.energy_joules, lucene.energy_joules,
                         boss.savings_over(lucene)))
        return rows + [f"geomean savings: "
                       f"{geomean(row[3] for row in rows):.1f}x (paper: 189x)"]

    @figure("table3", "Table III: area and power of BOSS (TSMC 40nm)",
            "component|{:<18};#|{:>3};area mm^2|{:>12.3f};power mW|{:>12.2f}",
            _table3_headline)
    def _table3(self):
        rows = []
        for name, breakdown, totals in (
                ("device", area_power.BOSS_DEVICE_BREAKDOWN,
                 area_power.boss_device_totals()),
                ("core", area_power.BOSS_CORE_BREAKDOWN,
                 area_power.boss_core_totals())):
            rows.append(f"-- BOSS {name} --")
            rows += [(c.name, c.instances, c.area_mm2, c.power_mw)
                     for c in breakdown]
            rows.append(("total", "", totals["area_mm2"], totals["power_mw"]))
        return rows + [
            f"CPU package power: {area_power.CPU_PACKAGE_POWER_W} W (BOSS "
            f"advantage: {_table3_headline(rows)['power_advantage'][0]:.1f}x)"]

    # -- extensions (not in the paper's evaluation) ------------------------

    def _ablation(self, workload: Workload, qtype: str,
                  **config) -> Tuple[int, int, int]:
        """(evaluated, fetched, metadata) of a union type's first 45
        queries, one config."""
        engine = BossAccelerator(workload.index,
                                 replace(BossConfig(k=K), **config))
        work = [engine.search(q.expression).work
                for q in workload.queries_of(qtype)[:45]]
        return (sum(w.docs_evaluated for w in work),
                sum(w.blocks_fetched for w in work),
                sum(w.metadata_inspected for w in work))

    def _ablation_groups(self):
        """``(corpus, qtype, workload)`` per ablated group: the
        multi-term union types (WAND cannot prune a single list)."""
        return [(workload.corpus.spec.name, qtype, workload)
                for workload in (self.clueweb, self.ccnews)
                for qtype in ("Q3", "Q5")]

    @figure("ablation_et",
            f"Ablation: ET mechanisms (first 45 Q3 / Q5 queries, k={K})",
            "corpus|{:<16};qtype|{:<6};mode|{:<12};evaluated|{:>11}"
            ";fetched|{:>9};norm|{:>7.2f}")
    def _ablation_et(self):
        rows = []
        for corpus, qtype, workload in self._ablation_groups():
            runs = [(corpus, qtype, name, *self._ablation(
                        workload, qtype, et_block=block, et_wand=wand)[:2])
                    for name, block, wand in (
                        ("none", False, False), ("wand-only", False, True),
                        ("block-only", True, False), ("both", True, True))]
            rows += [(*run, run[3] / runs[0][3]) for run in runs]
        return rows

    @figure("ablation_interval",
            "Ablation: pruning-interval length in blocks "
            "(first 45 Q3 / Q5 queries)",
            "corpus|{:<16};qtype|{:<6};interval|{:<10};evaluated|{:>11}"
            ";fetched|{:>9};metadata|{:>10}")
    def _ablation_interval(self):
        return [(corpus, qtype, window,
                 *self._ablation(workload, qtype, et_interval_blocks=window))
                for corpus, qtype, workload in self._ablation_groups()
                for window in (1, 2, 4, 8)]

    @figure("pool_scaleout",
            "Extension: pool scale-out (aggregate throughput)",
            "nodes|{:<7};BOSS qps|{:>14.0f};Lucene qps|{:>14.0f}"
            ";BOSS scaling|{:>13.1f}x")
    def _pool_scaleout(self):
        """One uniform shard per node. BOSS has compute and bandwidth per
        node and only its results share the host link; the host engine's
        8 cores serialize every shard and every byte crosses the link."""
        reports = {e: self.report(self.ccnews, e) for e in ("BOSS", "Lucene")}

        def throughput(engine, nodes):
            report = reports[engine]
            return nodes * report.num_queries / max(
                report.compute_seconds * (nodes if engine == "Lucene" else 1),
                report.memory_seconds, nodes * report.interconnect_seconds)

        pool = MemoryPool(nodes=16)
        return [(nodes, throughput("BOSS", nodes),
                 throughput("Lucene", nodes),
                 throughput("BOSS", nodes) / throughput("BOSS", 1))
                for nodes in (1, 2, 4, 8, 16)] + [
            f"16-node pool: capacity {pool.capacity >> 40} TB, host-visible "
            f"BW/capacity {pool.bandwidth_to_capacity_ratio:.2e} /s"]

    @figure("latency", "Extension: latency under open arrivals (8 cores)",
            "engine|{:<8};load|{:>6.1f};mean us|{:>10.1f};p50 us|{:>9.1f}"
            ";p99 us|{:>9.1f};util|{:>7.2f}")
    def _latency(self):
        """Open arrivals at a fraction of each engine's own saturation,
        through the serving queue: a query holds its cores (one per four
        BOSS terms, chained) for its contended service time."""
        rows = []
        for engine in ("BOSS", "Lucene"):
            model = self.models[engine]
            results = self.ccnews.results_of(engine)
            saturation = self.report(self.ccnews, engine).throughput_qps
            service = model.contended_seconds(results)
            cores = [min(model.num_cores, model.cores_used(r))
                     for r in results]
            # Request i replays results[i]: nothing is searched again.
            server = QueryServer(
                SimpleNamespace(search=lambda expression, k:
                                results[int(expression)]),
                ServingConfig(workers=model.num_cores,
                              queue_capacity=len(results)),
                service_time=lambda request, _: service[request.request_id],
                width=lambda request: cores[request.request_id])
            core_seconds = sum(c * s for c, s in zip(cores, service))
            replay = [str(i) for i in range(len(results))]
            for load in (0.3, 0.6, 0.9):
                rate = load * saturation
                report = server.serve(build_requests(replay, TraceArrivals(
                    [i / rate for i in range(len(results))]))).report
                rows.append((engine, load,
                             report.mean_latency_seconds * 1e6,
                             report.p50_latency_seconds * 1e6,
                             report.p99_latency_seconds * 1e6,
                             min(1.0, core_seconds / (
                                 report.makespan_seconds * model.num_cores))))
        return rows

    @figure("pipeline",
            "Extension: BOSS pipeline busy-time shares by query type",
            "qtype|{:<7}" + _cols(ALL_STAGES, "{:>14.1%} ")
            + ";bottleneck|{:>15}")
    def _pipeline(self):
        rows = []
        for qt in QUERY_TYPES:
            traces = [build_trace(self.models["BOSS"], result)
                      for result in self.ccnews.results_of("BOSS", qt)]
            totals = aggregate_stage_seconds(traces)
            grand = sum(totals.values())
            rows.append((qt, *(totals.get(stage, 0.0) / grand
                               for stage in ALL_STAGES),
                         batch_bottleneck(traces)))
        return rows

    @figure("cache_tier", "Extension: DRAM block cache over a Zipf query log",
            "capacity|{:>9.0%};hit rate|{:>10.2f};bytes@DRAM|{:>12.2f}"
            ";fetch speedup|{:>14.2f}x")
    def _cache_tier(self):
        """The planner's segmented DRAM tier sized as a fraction of the
        compressed index, under a 400-query Zipf log of 40 distinct
        queries."""
        sampler = QuerySampler(self.ccnews.corpus.terms_by_df(), seed=77)
        records = [record for _result, log in self.ccnews.fetch_traces(
            sampler.sample_zipf_log(400, 40)) for record in log]
        uncached = uncached_memory_seconds(records)
        rows = []
        for fraction in (0.01, 0.05, 0.2, 1.0):
            tier = DramTier(int(fraction * self.ccnews.index.compressed_bytes))
            routed = replay_fetches(records, tier)
            rows.append((fraction, tier.hit_rate,
                         routed.dram_hit_bytes / routed.demand_bytes,
                         uncached / replay_seconds(routed)))
        return rows

    @figure("coresim", "Extension: event-driven core sim vs analytic model",
            "qtype|{:<7};event/analytic|{:>16.2f};pipeline eff|{:>14.2f}"
            ";queries|{:>9}")
    def _coresim(self):
        """Event-simulated over analytic (max-of-stages) time, 20 traced
        queries per type."""
        model = self.models["BOSS"]
        simulator = BossCoreSimulator()
        rows = []
        for qt in QUERY_TYPES:
            runs = [
                (simulator.simulate(result, records), max(
                    model.compute_seconds(result) - model.query_overhead,
                    model.memory_seconds(result)))
                for result, records in self.ccnews.fetch_traces(
                    self.ccnews.queries_of(qt)[:20])]
            rows.append((
                qt, sum(r.total_seconds / analytic for r, analytic in runs)
                / len(runs),
                sum(r.pipeline_efficiency for r, _ in runs) / len(runs),
                len(runs)))
        return rows


# -- the two generated artefacts ------------------------------------------

def render(evaluation: Evaluation) -> str:
    """Every table, as committed in ``benchmarks/results.txt``. Seeded
    Generator streams are only promised stable within one numpy version,
    so the gates compare only under the one the header records."""
    out = [
        "# generated by `python -m repro.experiments --write` — do not edit",
        f"# scale {SCALE}, {QUERIES_PER_BUCKET} queries per bucket, "
        f"k = {K}, sampler seed {SAMPLER_SEED}",
        f"# numpy {numpy.__version__}"]
    for key, entry in FIGURES.items():
        out += ["", f"== {entry.title} ==",
                *format_rows(entry.columns, evaluation.rows(key))]
    return "\n".join(out) + "\n"


def headlines(evaluation: Evaluation) -> List[Tuple[str, float, float, float]]:
    """``(figure.name, measured, paper, rel_err)`` per headline number."""
    return [
        (f"{key}.{name}", measured, paper, abs(measured - paper) / paper)
        for key, entry in FIGURES.items()
        for name, (measured, paper)
        in entry.headline(evaluation.rows(key)).items()]


def render_headline(evaluation: Evaluation) -> str:
    """EXPERIMENTS.md's Headline table, marker comments included."""
    return "\n".join([
        "<!-- headline:begin (generated by `python -m repro.experiments "
        "--write`; do not edit) -->",
        "| quantity | paper | measured | rel_err |",
        "|---|---|---|---|",
        *(f"| `{name}` | {paper:.4g} | {measured:.4g} | {rel_err:.3f} |"
          for name, measured, paper, rel_err in headlines(evaluation)),
        "<!-- headline:end -->"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.experiments")
    parser.add_argument(
        "--write", action="store_true",
        help="rewrite benchmarks/results.txt and EXPERIMENTS.md's Headline "
             "table instead of printing every table")
    write = parser.parse_args(argv).write
    evaluation = Evaluation()
    if not write:
        print(render(evaluation), end="")
        return 0
    headline = render_headline(evaluation)
    experiments, spliced = _HEADLINE.subn(
        lambda _match: headline, EXPERIMENTS_PATH.read_text("utf-8"))
    if spliced != 1:
        parser.error(f"{EXPERIMENTS_PATH} lost its headline markers")
    EXPERIMENTS_PATH.write_text(experiments, "utf-8")
    RESULTS_PATH.write_text(render(evaluation), "utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
