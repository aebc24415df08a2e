"""The paper's evaluation, gated on every push: one session-scoped
``Evaluation`` feeds every figure's shape assertions (the paper's claims,
quoted per test) and the byte-identity checks of both generated files."""

import math

import numpy
import pytest

from repro import experiments
from repro.experiments import (
    CORE_COUNTS, FIGURES, QUERY_TYPES, UNION_TYPES, dram_gain, find, geomean)
from repro.observability import aggregate_stage_seconds, build_trace


@pytest.fixture(scope="session")
def ev():
    return experiments.Evaluation()


def cells(rows):
    """The value rows of a figure, without its section lines and notes."""
    return [row for row in rows if not isinstance(row, str)]


def non_decreasing(values, slack=1e-9):
    return all(b >= a - slack for a, b in zip(values, values[1:]))


class TestRegistry:
    def test_keys_and_titles_are_unique(self):
        titles = [entry.title for entry in FIGURES.values()]
        assert len(set(FIGURES)) == len(FIGURES) == len(set(titles)) == 18

    def test_every_headline_carries_a_finite_paper_value(self, ev):
        headlines = experiments.headlines(ev)
        assert len({name for name, *_ in headlines}) == len(headlines) >= 10
        for name, measured, paper, rel_err in headlines:
            assert math.isfinite(paper) and paper > 0, name
            assert math.isfinite(measured) and math.isfinite(rel_err), name

    def test_every_row_fits_its_columns(self, ev):
        for key, entry in FIGURES.items():
            width = entry.columns.count(";") + 1
            assert all(len(row) == width for row in cells(ev.rows(key))), key


class TestPaperFigures:
    def test_fig03_hybrid_dominates_and_the_winner_varies(self, ev):
        rows = ev.rows("fig03")
        for name, *ratios, hybrid, _best in rows:
            assert hybrid >= max(ratios) * 0.999, name
        assert len({row[-1] for row in rows}) >= 2

    @pytest.mark.parametrize("key", ["fig09", "fig10"])
    def test_multicore_throughput(self, ev, key):
        """Paper: BOSS 7.54x / 8.7x, IIU 1.69x / 1.75x at 8 cores."""
        boss = [find(ev.rows(key), "BOSS", c)[-1] for c in CORE_COUNTS]
        iiu = [find(ev.rows(key), "IIU", c)[-1] for c in CORE_COUNTS]
        assert boss[-1] > iiu[-1] > 0.5
        assert 3.0 < boss[-1] < 20.0
        # BOSS keeps scaling with cores; IIU saturates earlier.
        assert boss[-1] / boss[0] >= iiu[-1] / iiu[0]
        assert boss == sorted(boss)

    @pytest.mark.parametrize("key, corpus", [("fig11", "clueweb"),
                                              ("fig12", "ccnews")])
    def test_bandwidth_utilization(self, ev, key, corpus):
        workload = getattr(ev, corpus)
        for column, qt in enumerate(QUERY_TYPES, start=2):
            # BOSS moves fewer bytes than IIU on every query type ...
            boss, iiu = (sum(r.traffic.total_bytes
                             for r in workload.results_of(engine, qt))
                         for engine in ("BOSS", "IIU"))
            assert boss <= iiu, qt
            # ... and its bandwidth demand never falls with core count.
            assert non_decreasing([find(ev.rows(key), "BOSS", c)[column]
                                   for c in CORE_COUNTS]), qt

    def test_fig13_single_core(self, ev):
        table = {row[0]: dict(zip(QUERY_TYPES, row[1:]))
                 for row in ev.rows("fig13")}
        for qt in QUERY_TYPES:
            assert table["BOSS"][qt] >= table["BOSS-exhaustive"][qt] * 0.999
        # ET gain on unions shrinks with term count (Q1 >= Q5 trend band).
        assert table["ET gain"]["Q1"] >= table["ET gain"]["Q5"] * 0.5
        # The paper's Q1 exception: IIU's four lanes on one stream beat
        # BOSS-exhaustive's single lane on single-term queries.
        assert table["IIU"]["Q1"] > table["BOSS-exhaustive"]["Q1"]
        for qt in ("Q2", "Q4", "Q6"):
            assert table["BOSS"][qt] >= table["IIU"][qt], qt

    def test_fig14_evaluated_documents(self, ev):
        block_only, boss = (row[1:] for row in ev.rows("fig14"))
        for block, both in zip(block_only, boss):
            assert both <= 1.0
            assert block <= 1.0
            # Both modules never evaluate more than block fetch alone.
            assert both <= block + 1e-9
        assert min(boss) < 0.8

    def test_fig15_memory_access_breakdown(self, ev):
        rows = ev.rows("fig15")
        for qt in QUERY_TYPES:
            _, _, *iiu = find(rows, qt, "IIU")
            _, _, ld_list, ld_score, ld_inter, st_inter, st_result, total = (
                find(rows, qt, "BOSS"))
            # BOSS never touches intermediate data in memory,
            assert ld_inter == 0
            assert st_inter == 0
            # stores the top-k only, and moves less in total.
            assert st_result <= iiu[4]
            assert total <= iiu[5]
            # Trace attribution conserves the engines' raw counters.
            for engine in ("IIU", "BOSS"):
                assert sum(ev.class_bytes(engine, qt).values()) == sum(
                    r.traffic.total_bytes
                    for r in ev.ccnews.results_of(engine, qt))
        # IIU's multi-term intersections really do spill.
        assert find(rows, "Q4", "IIU")[5] > 0
        assert find(rows, "Q6", "IIU")[5] > 0

    def test_fig16_dram_vs_scm(self, ev):
        """Paper: Lucene <= 15 %, IIU 3.29x, BOSS 2.31x faster on DRAM."""
        rows = ev.rows("fig16")
        assert dram_gain(rows, "Lucene") < 1.2
        assert dram_gain(rows, "BOSS") > 1.2
        assert dram_gain(rows, "IIU") > dram_gain(rows, "BOSS")
        for boss, iiu in zip(find(rows, "BOSS", "SCM")[2:],
                             find(rows, "IIU", "SCM")[2:]):
            assert boss >= iiu

    def test_fig17_energy(self, ev):
        savings = [row[3] for row in cells(ev.rows("fig17"))]
        assert all(s > 10 for s in savings)
        assert 30 < geomean(savings) < 1000  # paper: 189x

    def test_table3_area_power(self, ev):
        table3 = {name.split(".")[1]: measured
                  for name, measured, _paper, _err in experiments.headlines(ev)
                  if name.startswith("table3.")}
        assert table3["core_area_mm2"] == pytest.approx(1.003, rel=0.01)
        assert table3["core_power_mw"] == pytest.approx(406.6, rel=0.01)
        assert table3["device_area_mm2"] == pytest.approx(8.27, rel=0.01)
        assert table3["device_power_w"] == pytest.approx(3.2, rel=0.02)
        assert table3["power_advantage"] == pytest.approx(23.3, rel=0.02)


class TestExtensions:
    def test_ablation_et_modes(self, ev):
        groups = {}
        for corpus, qtype, mode, evaluated, *_ in ev.rows("ablation_et"):
            groups.setdefault((corpus, qtype), {})[mode] = evaluated
        assert {qtype for _, qtype in groups} == {"Q3", "Q5"}
        assert len(groups) == 4
        for group, evaluated in groups.items():
            # Each union type has lists for WAND to pivot over.
            assert evaluated["wand-only"] < evaluated["none"], group
            assert evaluated["both"] <= evaluated["block-only"], group
            assert evaluated["both"] <= evaluated["wand-only"], group
            assert evaluated["block-only"] <= evaluated["none"], group

    def test_ablation_interval_length(self, ev):
        # Longer intervals -> looser bounds -> no fewer evaluations.
        groups = {}
        for corpus, qtype, _window, evaluated, *_ in \
                ev.rows("ablation_interval"):
            groups.setdefault((corpus, qtype), []).append(evaluated)
        assert len(groups) == 4
        for group, evaluated in groups.items():
            assert all(b >= a - a * 0.01
                       for a, b in zip(evaluated, evaluated[1:])), group

    def test_pool_scaleout(self, ev):
        rows = cells(ev.rows("pool_scaleout"))
        assert rows[-1][1] / rows[0][1] > 0.75 * rows[-1][0]
        # BOSS's advantage over the host path grows with node count.
        assert rows[-1][1] / rows[-1][2] >= rows[0][1] / rows[0][2]

    def test_latency_under_load(self, ev):
        rows = ev.rows("latency")
        for _engine, _load, mean, p50, p99, util in rows:
            assert p99 >= p50 > 0
            assert mean > 0
            assert 0 < util <= 1
        for boss, lucene in zip(rows[:3], rows[3:]):
            assert boss[2] < lucene[2]

    def test_pipeline_breakdown(self, ev):
        memory = {}
        for qt in QUERY_TYPES:
            traces = [build_trace(ev.models["BOSS"], result)
                      for result in ev.ccnews.results_of("BOSS", qt)]
            totals = aggregate_stage_seconds(traces)
            memory[qt] = totals["memory"]
            assert all(seconds >= 0 for seconds in totals.values())
            assert totals["decompression"] > 0
            for trace in traces[:10]:  # stage times sum to the latency
                assert sum(s.seconds for s in trace.spans) == pytest.approx(
                    trace.latency_seconds)
        # Unions lean on memory more than intersections do.
        assert memory["Q5"] > memory["Q4"]

    def test_cache_tier(self, ev):
        hit_rates = [row[1] for row in ev.rows("cache_tier")]
        assert non_decreasing(hit_rates)
        assert hit_rates[-1] > 0.5
        # The cache speeds block fetches up at every capacity point.
        assert all(row[3] >= 1.0 for row in ev.rows("cache_tier"))

    def test_coresim_validation(self, ev):
        # The analytic model is a faithful summary: within 3x on average
        # per query type, and never optimistic by much.
        for qt, ratio, _efficiency, _queries in ev.rows("coresim"):
            assert 0.8 <= ratio <= 3.0, (qt, ratio)


class TestGeneratedArtefacts:
    @pytest.fixture(scope="class")
    def committed(self):
        text = experiments.RESULTS_PATH.read_text(encoding="utf-8")
        recorded = text.split("# numpy ")[1].split()[0]
        if numpy.__version__ != recorded:
            pytest.skip("the corpora were drawn with numpy " + recorded)
        return text

    def test_results_txt_is_current(self, ev, committed):
        def sections(text):
            return dict(part.split(" ==\n", 1)
                        for part in text.split("\n== ")[1:])

        rendered = experiments.render(ev)
        old, new = sections(committed), sections(rendered)
        stale = [key for key, entry in FIGURES.items()
                 if old.get(entry.title) != new[entry.title]]
        assert not stale, (
            f"benchmarks/results.txt is stale for {stale}: run "
            "`python -m repro.experiments --write` and review the diff")
        assert rendered == committed

    def test_experiments_md_headline_is_current(self, ev, committed):
        text = experiments.EXPERIMENTS_PATH.read_text(encoding="utf-8")
        assert experiments.render_headline(ev) in text
