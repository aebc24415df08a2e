"""``repro-boss serve`` == the library, flag set by flag set.

The CLI has one ``serve`` path; each deterministic flag set must report
exactly what constructing the target and the server by hand reports
from the same seeds. The second half pins the refusal table: every
pair it lists is a ``ConfigurationError``, not a silent fallback.
"""

import json

import pytest

from repro import cli
from repro.clock import VirtualClock
from repro.cluster import (
    Rebalancer,
    RebalancingClusterTarget,
    parse_rebalance_script,
    rebalance_requests,
)
from repro.cluster.resilience import ResiliencePolicy
from repro.core import BossAccelerator, BossConfig
from repro.errors import ConfigurationError
from repro.faults import FaultConfig, make_faulty_cluster
from repro.ioplanner import PlannedQueryServer, PlannerConfig
from repro.live import LiveServingTarget
from repro.scm.device import OPTANE_NODE_4CH
from repro.serving import (
    QueryServer,
    ServingConfig,
    ServingReport,
    splice_requests,
    zipf_workload,
)
from repro.vector import (
    HybridSearch,
    HybridServingTarget,
    VectorEngine,
    build_ivf,
    embed_corpus,
)
from repro.workloads import make_corpus, synthetic_documents

SEED = 5
QUERIES = 48
RATE = 3000.0
COMMON = ["--queries", str(QUERIES), "--rate", str(RATE),
          "--seed", str(SEED)]
CORPUS = ["--scale", "0.05"]
CLUSTER = ["--shards", "3", "--replication", "2", "--cluster-docs", "240"]
SCRIPT = "@0.002 split 0 40\n@0.008 add-replica 1\n"
REPORT_FIELDS = tuple(ServingReport().to_dict())
SERVING = ServingConfig(workers=4, queue_capacity=32, admission="reject",
                        k=10)
PLANNER = PlannerConfig(window_seconds=0.002, dram_bytes=64 << 20,
                        workers=4, queue_capacity=32, k=10)


def _cli(argv, capsys) -> dict:
    assert cli.main(["serve", *COMMON, *argv, "--json"]) == 0
    return json.loads(capsys.readouterr().out)


def _workload(vocab, **kwargs):
    return zipf_workload(vocab, QUERIES, RATE, unique_queries=32,
                         seed=SEED, **kwargs)


def _serve(target, requests):
    return QueryServer(target, SERVING,
                       service_time=target.service_time).serve(requests)


def _corpus_engine():
    corpus = make_corpus("ccnews-like", scale=0.05)
    return corpus, BossAccelerator(corpus.index, BossConfig(k=10))


def _cluster(clock=None):
    """The cluster ``--shards 3 --replication 2 --cluster-docs 240``
    describes: zero-rate seeded faults, two retries, degraded allowed."""
    return make_faulty_cluster(
        synthetic_documents(num_docs=240, seed=7), 3,
        faults=FaultConfig(seed=7),
        policy=ResiliencePolicy(max_retries=2, allow_degraded=True),
        replication_factor=2, k=10, clock=clock,
    )


def _rebalancing_target():
    clock = VirtualClock()
    cluster, sharded = _cluster(clock)
    rebalancer = Rebalancer(cluster, sharded, clock=clock, k=10)
    requests = splice_requests(
        _workload(cli._CLUSTER_VOCAB),
        rebalance_requests(parse_rebalance_script(SCRIPT)),
    )
    return RebalancingClusterTarget(cluster, rebalancer), requests


@pytest.fixture()
def script(tmp_path):
    path = tmp_path / "moves.rbs"
    path.write_text(SCRIPT)
    return str(path)


def _report_of(payload: dict) -> dict:
    return {name: payload[name] for name in REPORT_FIELDS}


class TestCliEqualsLibrary:
    @pytest.mark.parametrize("mode", ["rerank", "rrf"])
    def test_hybrid(self, mode, capsys):
        payload = _cli([*CORPUS, "--hybrid", mode], capsys)
        corpus, engine = _corpus_engine()
        embeddings = embed_corpus(corpus)
        vectors = VectorEngine(build_ivf(embeddings), embeddings,
                               device=OPTANE_NODE_4CH)
        target = HybridServingTarget(
            HybridSearch(engine, vectors, mode=mode))
        result = _serve(target, _workload(corpus.terms_by_df()))
        assert _report_of(payload) == result.report.to_dict()
        assert payload["hybrid"] == mode
        assert payload["nprobe"] == vectors.nprobe

    def test_update_mix(self, capsys):
        payload = _cli([*CORPUS, "--update-mix", "0.3"], capsys)
        writer, vocab = cli._build_live_writer(
            SEED, 80, vocab_size=32, device=OPTANE_NODE_4CH)
        requests = _workload(vocab, update_mix=0.3)
        result = _serve(LiveServingTarget(writer), requests)
        assert _report_of(payload) == result.report.to_dict()
        assert payload["updates_offered"] == sum(
            1 for r in requests if r.update is not None) > 0
        assert payload["segments"] == writer.index.num_segments
        assert payload["index_write_bytes"] == writer.index_write_bytes

    def test_rebalance_script(self, script, capsys):
        payload = _cli([*CLUSTER, "--rebalance-script", script], capsys)
        target, requests = _rebalancing_target()
        result = _serve(target, requests)
        assert _report_of(payload) == result.report.to_dict()
        assert payload["moves"] == [
            move.to_dict() for move in target.rebalancer.reports]
        assert payload["moves_published"] == 2

    def test_planner(self, capsys):
        payload = _cli([*CORPUS, "--planner"], capsys)
        corpus, engine = _corpus_engine()
        result = PlannedQueryServer(engine, PLANNER).serve(
            _workload(corpus.terms_by_df()))
        assert _report_of(payload) == result.report.to_dict()
        assert payload["planner"] == result.planner.to_dict()
        # The run hits the DRAM tier.
        assert payload["planner"]["dram_hit_bytes"] > 0

    def test_planner_over_shards(self, capsys):
        payload = _cli([*CLUSTER, "--planner"], capsys)
        cluster, _sharded = _cluster()
        result = PlannedQueryServer(cluster, PLANNER).serve(
            _workload(cli._CLUSTER_VOCAB))
        assert _report_of(payload) == result.report.to_dict()
        assert payload["planner"] == result.planner.to_dict()

    def test_rebalance_script_under_the_planner(self, script, capsys):
        payload = _cli([*CLUSTER, "--rebalance-script", script,
                        "--planner"], capsys)
        target, requests = _rebalancing_target()
        result = PlannedQueryServer(target, PLANNER).serve(requests)
        assert _report_of(payload) == result.report.to_dict()
        assert payload["planner"] == result.planner.to_dict()
        assert payload["moves_published"] == 2
        assert payload["final_shards"] == 4

    def test_update_mix_under_the_planner(self, capsys):
        payload = _cli([*CORPUS, "--update-mix", "0.3", "--planner"],
                       capsys)
        writer, vocab = cli._build_live_writer(
            SEED, 80, vocab_size=32, device=OPTANE_NODE_4CH)
        requests = _workload(vocab, update_mix=0.3)
        result = PlannedQueryServer(LiveServingTarget(writer),
                                    PLANNER).serve(requests)
        assert _report_of(payload) == result.report.to_dict()
        assert payload["planner"] == result.planner.to_dict()
        # The live segments' block fetches reach the planner.
        assert payload["planner"]["demand_bytes"] > 0
        assert payload["segments"] == writer.index.num_segments


#: One way to switch each refusable ``serve`` flag on.
FLAG_ARGV = {
    "index": ["--index", "corpus.bossx"],
    "shards": ["--shards", "2"],
    "update_mix": ["--update-mix", "0.2"],
    "planner": ["--planner"],
    "hybrid": ["--hybrid", "rrf"],
}


class TestRefusalTable:
    @pytest.mark.parametrize(
        "first,second,why", cli.SERVE_REFUSALS,
        ids=[f"{a}+{b}" for a, b, _why in cli.SERVE_REFUSALS])
    def test_refused_pair_raises(self, first, second, why, capsys):
        argv = ["serve", *FLAG_ARGV[first], *FLAG_ARGV[second]]
        args = cli._build_parser().parse_args(argv)
        with pytest.raises(ConfigurationError, match=why):
            cli._cmd_serve(args)
        assert cli.main(argv) == 2
        assert why in capsys.readouterr().err

    def test_docs_mirror_the_table(self):
        from pathlib import Path

        doc = (Path(__file__).resolve().parents[2] / "docs"
               / "serving.md").read_text()
        for first, second, _why in cli.SERVE_REFUSALS:
            row = (f"| `--{first.replace('_', '-')}` + "
                   f"`--{second.replace('_', '-')}` |")
            assert row in doc, row
        assert doc.count("` + `--") == len(cli.SERVE_REFUSALS)

    def test_rebalance_script_requires_shards(self, script):
        args = cli._build_parser().parse_args(
            ["serve", "--rebalance-script", script])
        with pytest.raises(ConfigurationError, match="requires --shards"):
            cli._cmd_serve(args)
