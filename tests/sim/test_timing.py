"""Timing-model tests: bottleneck logic and paper-shaped trends."""

import pytest

from repro.baselines import IIUAccelerator, IIUConfig, LuceneConfig, LuceneEngine
from repro.core import BossAccelerator, BossConfig
from repro.errors import ConfigurationError
from repro.scm.device import DDR4_4CH, OPTANE_NODE_4CH
from repro.sim.timing import (
    BossTimingModel,
    IIUTimingModel,
    LuceneCostModel,
    LuceneTimingModel,
)

TABLE_II = [
    '"t0"',
    '"t1" AND "t3"',
    '"t2" OR "t5"',
    '"t0" AND "t1" AND "t2" AND "t3"',
    '"t1" OR "t4" OR "t7" OR "t9"',
    '"t0" AND ("t2" OR "t4" OR "t8")',
]


@pytest.fixture(scope="module")
def executions(small_index):
    """One execution batch per engine over the Table II queries."""
    boss = BossAccelerator(small_index, BossConfig(k=20))
    iiu = IIUAccelerator(small_index, IIUConfig(k=20))
    lucene = LuceneEngine(small_index, LuceneConfig(k=20))
    return {
        "BOSS": [boss.search(q) for q in TABLE_II],
        "IIU": [iiu.search(q) for q in TABLE_II],
        "Lucene": [lucene.search(q) for q in TABLE_II],
    }


class TestPerQuery:
    def test_query_time_positive(self, executions):
        model = BossTimingModel()
        for result in executions["BOSS"]:
            assert model.query_seconds(result) > 0

    def test_query_time_is_max_of_bounds(self, executions):
        model = BossTimingModel()
        for result in executions["BOSS"]:
            total = model.query_seconds(result)
            assert total >= model.compute_seconds(result)
            assert total >= model.memory_seconds(result)

    def test_cores_used_from_terms(self, executions):
        model = BossTimingModel()
        assert model.cores_used(executions["BOSS"][0]) == 1  # 1 term
        assert model.cores_used(executions["BOSS"][3]) == 1  # 4 terms


class TestBatch:
    def test_throughput_monotone_in_cores_until_saturation(self, executions):
        model = BossTimingModel()
        previous = 0.0
        for cores in (1, 2, 4, 8):
            report = model.batch(executions["BOSS"], cores)
            assert report.throughput_qps >= previous
            previous = report.throughput_qps

    def test_saturation_is_memory_bound(self, executions):
        """With enough cores, the shared device bandwidth must be the
        wall — the paper's scaling argument."""
        model = BossTimingModel()
        report = model.batch(executions["BOSS"], 1024)
        assert report.bottleneck in ("memory", "interconnect")

    def test_zero_cores_rejected(self, executions):
        with pytest.raises(ConfigurationError):
            BossTimingModel().batch(executions["BOSS"], 0)

    def test_report_fields_consistent(self, executions):
        report = BossTimingModel().batch(executions["BOSS"], 8)
        assert report.batch_seconds == max(
            report.compute_seconds,
            report.memory_seconds,
            report.interconnect_seconds,
        )
        assert report.num_queries == len(TABLE_II)
        assert report.avg_bandwidth > 0


class TestPaperTrends:
    def test_boss_beats_both_baselines(self, executions):
        """Figure 9/10's ordering at 8 cores (BOSS on top).

        The full BOSS > IIU > Lucene ordering needs posting lists long
        enough that per-query overheads stop dominating; it is asserted
        on a realistic corpus in tests/test_integration.py.
        """
        boss = BossTimingModel().batch(executions["BOSS"], 8)
        iiu = IIUTimingModel().batch(executions["IIU"], 8)
        lucene = LuceneTimingModel().batch(executions["Lucene"], 8)
        assert boss.throughput_qps > iiu.throughput_qps
        assert boss.throughput_qps > lucene.throughput_qps

    def test_speedup_over(self, executions):
        boss = BossTimingModel().batch(executions["BOSS"], 8)
        lucene = LuceneTimingModel().batch(executions["Lucene"], 8)
        assert boss.speedup_over(lucene) > 1.0
        assert lucene.speedup_over(boss) < 1.0

    def test_lucene_insensitive_to_memory_device(self, executions):
        """Figure 16: Lucene gains at most ~15% from DRAM."""
        scm = LuceneTimingModel(device=OPTANE_NODE_4CH).batch(
            executions["Lucene"], 8
        )
        dram = LuceneTimingModel(device=DDR4_4CH).batch(
            executions["Lucene"], 8
        )
        assert dram.throughput_qps / scm.throughput_qps < 1.20

    def test_accelerators_gain_from_dram(self, executions):
        """Figure 16: both accelerators speed up on DRAM, IIU more."""
        boss_gain = (
            BossTimingModel(device=DDR4_4CH).batch(executions["BOSS"], 8)
            .throughput_qps
            / BossTimingModel().batch(executions["BOSS"], 8).throughput_qps
        )
        iiu_gain = (
            IIUTimingModel(device=DDR4_4CH).batch(executions["IIU"], 8)
            .throughput_qps
            / IIUTimingModel().batch(executions["IIU"], 8).throughput_qps
        )
        # On the tiny unit-test corpus the gains are noisy; the
        # paper-shape ordering (IIU gains more than BOSS) is asserted at
        # benchmark scale in repro.experiments (FIGURES["fig16"]).
        assert boss_gain >= 1.0
        assert iiu_gain > 1.0

    def test_lucene_is_compute_bound(self, executions):
        report = LuceneTimingModel().batch(executions["Lucene"], 8)
        assert report.bottleneck == "compute"


class TestLuceneCostModel:
    def test_costs_accumulate(self):
        from repro.sim.metrics import WorkCounters

        costs = LuceneCostModel(decode_ns_per_posting=10.0,
                                query_overhead_us=0.0,
                                merge_ns_per_op=0.0,
                                score_ns_per_doc=0.0,
                                metadata_ns_per_block=0.0,
                                topk_ns_per_insert=0.0)
        work = WorkCounters(postings_decoded=1000)
        assert costs.compute_seconds(work) == pytest.approx(10e-6)

    def test_overhead_floor(self):
        from repro.sim.metrics import WorkCounters

        costs = LuceneCostModel()
        assert costs.compute_seconds(WorkCounters()) == pytest.approx(
            costs.query_overhead_us * 1e-6
        )
