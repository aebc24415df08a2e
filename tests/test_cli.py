"""Tests for the repro-boss command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture()
def docs_file(tmp_path):
    path = tmp_path / "docs.txt"
    path.write_text(
        "storage class memory bridges dram and disk\n"
        "the inverted index is the standard structure\n"
        "\n"  # blank lines are skipped
        "near data processing saves bandwidth\n"
        "search accelerators score documents with bm25\n"
    )
    return path


@pytest.fixture()
def index_file(docs_file, tmp_path):
    path = tmp_path / "corpus.boss"
    assert main(["build", "--input", str(docs_file),
                 "--output", str(path)]) == 0
    return path


class TestBuild:
    def test_build_reports_counts(self, docs_file, tmp_path, capsys):
        out = tmp_path / "x.boss"
        assert main(["build", "--input", str(docs_file),
                     "--output", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "indexed 4 documents" in captured
        assert out.exists()

    def test_build_with_pinned_scheme(self, docs_file, tmp_path, capsys):
        out = tmp_path / "vb.boss"
        assert main(["build", "--input", str(docs_file),
                     "--output", str(out), "--scheme", "VB"]) == 0
        assert main(["info", "--index", str(out)]) == 0
        assert "VB=" in capsys.readouterr().out

    def test_missing_input_errors(self, tmp_path):
        assert main(["build", "--input", str(tmp_path / "nope.txt"),
                     "--output", str(tmp_path / "o.boss")]) == 2

    def test_build_with_analysis(self, tmp_path, capsys):
        docs = tmp_path / "raw.txt"
        docs.write_text("The Queries hit the caches!\n"
                        "Cache misses are costly.\n")
        out = tmp_path / "analyzed.boss"
        assert main(["build", "--input", str(docs),
                     "--output", str(out), "--analyze"]) == 0
        # Stemming unifies "caches"/"Cache" -> "cache" across both docs.
        assert main(["search", "--index", str(out),
                     "--query", '"cache"']) == 0
        found = capsys.readouterr().out
        assert "doc 0" in found and "doc 1" in found


class TestInfo:
    def test_info_fields(self, index_file, capsys):
        assert main(["info", "--index", str(index_file)]) == 0
        out = capsys.readouterr().out
        assert "documents:        4" in out
        assert "scheme mix:" in out
        assert "format:           .bossx v2, 19 B block records" in out

    def test_info_bad_file(self, tmp_path):
        bad = tmp_path / "junk.boss"
        bad.write_bytes(b"nope")
        assert main(["info", "--index", str(bad)]) == 2


class TestSearch:
    def test_search_finds_documents(self, index_file, capsys):
        assert main(["search", "--index", str(index_file),
                     "--query", '"memory"']) == 0
        out = capsys.readouterr().out
        assert "doc 0" in out
        assert "modeled latency" in out

    @pytest.mark.parametrize("engine", ["boss", "iiu", "lucene"])
    def test_all_engines(self, index_file, engine, capsys):
        assert main(["search", "--index", str(index_file),
                     "--query", '"the"', "--engine", engine]) == 0
        assert "[Q1]" in capsys.readouterr().out

    def test_no_hits_message(self, index_file, capsys):
        assert main(["search", "--index", str(index_file),
                     "--query", '"memory" AND "search"']) == 0
        assert "no matching documents" in capsys.readouterr().out

    def test_unknown_term_is_error(self, index_file, capsys):
        assert main(["search", "--index", str(index_file),
                     "--query", '"zzzz"']) == 2

    def test_bad_query_syntax_is_error(self, index_file):
        assert main(["search", "--index", str(index_file),
                     "--query", "no quotes"]) == 2

    def test_mmap_and_binary_storage_print_the_same_ranking(self, tmp_path,
                                                            capsys):
        # mmap payloads are views copied at decode, binary ones in-memory
        # bytes: the same .bossx must rank the same either way.
        docs = tmp_path / "docs.txt"
        docs.write_text(
            "storage class memory bridges dram and disk\n"
            "the inverted index is the standard search structure\n"
            "near data processing saves memory bandwidth\n"
            "search accelerators score documents in memory with bm25\n"
        )
        index = tmp_path / "corpus.bossx"
        assert main(["build", "--input", str(docs),
                     "--output", str(index)]) == 0
        capsys.readouterr()
        printed = {}
        for storage in ("mmap", "binary"):
            assert main(["search", "--index", str(index), "--query",
                         '"memory" OR ("search" AND "index")',
                         "--storage", storage]) == 0
            printed[storage] = capsys.readouterr().out
        assert "doc " in printed["mmap"]
        assert printed["mmap"] == printed["binary"]


class TestTrace:
    STAGES = ("block-fetch", "decompression", "merger", "scoring",
              "top-k", "memory")

    def test_trace_prints_stage_breakdown(self, index_file, capsys):
        assert main(["trace", "--index", str(index_file),
                     "--query", '"memory" OR "search"']) == 0
        out = capsys.readouterr().out
        for stage in self.STAGES:
            assert stage in out, stage
        assert "bottleneck" in out
        assert "pipelined latency" in out

    def test_trace_json_mode_parses(self, index_file, capsys):
        import json

        assert main(["trace", "--index", str(index_file),
                     "--query", '"memory"', "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["engine"] == "BOSS"
        assert {s["name"] for s in record["spans"]} == set(self.STAGES)
        assert record["bottleneck"] in self.STAGES
        assert record["latency_seconds"] > 0

    def test_trace_iiu_engine(self, index_file, capsys):
        assert main(["trace", "--index", str(index_file),
                     "--query", '"the"', "--engine", "iiu"]) == 0
        assert "on IIU" in capsys.readouterr().out

    def test_trace_unknown_term_is_error(self, index_file):
        assert main(["trace", "--index", str(index_file),
                     "--query", '"zzzz"']) == 2


class TestMetrics:
    def test_metrics_dumps_registry(self, index_file, capsys):
        assert main(["metrics", "--index", str(index_file),
                     "--query", '"memory"',
                     "--query", '"the" AND "index"']) == 0
        out = capsys.readouterr().out
        assert "2 queries recorded" in out
        assert "queries.completed" in out
        assert "scm.bytes" in out
        assert "pool.capacity_bytes" in out
        assert "pipeline.stage_seconds" in out

    def test_metrics_json_mode_parses(self, index_file, capsys):
        import json

        assert main(["metrics", "--index", str(index_file),
                     "--query", '"memory"', "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["queries.completed"]["kind"] == "counter"
        latency = snapshot["query.latency_us"]
        assert latency["kind"] == "histogram"
        assert latency["samples"][0]["count"] == 1

    def test_metrics_json_is_deterministic(self, index_file, capsys):
        """Every registry value is modeled: two dumps of the same
        queries over the same index are the same text."""
        argv = ["metrics", "--index", str(index_file), "--query", '"memory"',
                "--query", '"memory" AND "bandwidth"',
                "--query", '"the" OR "index"', "--json"]
        dumps = []
        for _ in range(2):
            assert main(argv) == 0
            dumps.append(capsys.readouterr().out)
        assert dumps[0] == dumps[1]

    def test_metrics_bad_query_is_error(self, index_file):
        assert main(["metrics", "--index", str(index_file),
                     "--query", "no quotes"]) == 2


class TestDemo:
    def test_demo_prints_comparison(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "BOSS" in out and "IIU" in out and "Lucene" in out
        assert "speedup" in out


class TestValidate:
    def test_clean_index_validates(self, index_file, capsys):
        assert main(["validate", "--index", str(index_file)]) == 0
        assert "index OK" in capsys.readouterr().out

    def test_fast_mode(self, index_file, capsys):
        assert main(["validate", "--index", str(index_file),
                     "--fast"]) == 0

    def test_bad_file_is_error(self, tmp_path):
        bad = tmp_path / "bad.boss"
        bad.write_bytes(b"garbage")
        assert main(["validate", "--index", str(bad)]) == 2

    def test_version_1_file_is_a_typed_error(self, tmp_path, capsys):
        old = tmp_path / "v1.bossx"
        old.write_bytes(b"BOSSIDX1" + b"\x00" * 64)
        assert main(["validate", "--index", str(old)]) == 2
        err = capsys.readouterr().err
        assert f"error: {old} is a version 1 .bossx file" in err
        assert "version 2" in err


class TestBench:
    @pytest.mark.parametrize("flags, workers", [([], 1),
                                                (["--workers", "2"], 2)])
    def test_workers_default_to_one_and_are_honoured(self, flags, workers,
                                                     capsys):
        # One worker is the default; extra (forked) workers are opt-in.
        import json

        assert main(["bench", "--queries", "32", "--unique", "8",
                     "--scale", "0.05", "--json", *flags]) == 0
        passes = json.loads(capsys.readouterr().out)["passes"]
        assert passes and all(p["workers"] == workers for p in passes)


class TestClusterModes:
    """bench/trace --shards: fault-injected resilient cluster modes."""

    def test_bench_cluster_reports_resilience(self, capsys):
        assert main(["bench", "--shards", "2", "--cluster-docs", "150",
                     "--queries", "6", "--fault-rate", "0.3",
                     "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "fault rate 0.3" in out
        assert "degraded" in out and "p99 (ms)" in out

    def test_bench_cluster_json_parses(self, capsys):
        import json

        assert main(["bench", "--shards", "2", "--cluster-docs", "150",
                     "--queries", "6", "--workers", "1", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["shards"] == 2
        for passed in record["passes"]:
            assert passed["queries_degraded"] == 0  # zero-fault run
            assert "leaf_retries" in passed
            assert "p99_seconds" in passed

    @pytest.mark.parametrize("faults", [[], ["--fault-rate", "0.5"]])
    def test_bench_cluster_workers_agree(self, faults, capsys):
        # Without faults the second worker is a forked process; a fault
        # schedule carries state between searches, so that batch stays
        # in one process. Either way every non-timing field is what one
        # worker reports.
        import json
        import os

        records = {}
        for workers in ("1", "2"):
            assert main(["bench", "--shards", "2", "--cluster-docs", "150",
                         "--json", "--workers", workers, *faults]) == 0
            records[workers] = json.loads(capsys.readouterr().out)
        timing = {"workers", "wall_seconds", "queries_per_second",
                  "p50_seconds", "p95_seconds", "p99_seconds"}

        def untimed(record):
            return {**record, "passes": [
                {key: value for key, value in passed.items()
                 if key not in timing}
                for passed in record["passes"]
            ]}

        assert untimed(records["2"]) == untimed(records["1"])
        assert [p["workers"] for p in records["2"]["passes"]] == (
            [1, 1] if faults else [2, 2])
        if faults:
            assert sum(p["leaf_retries"] for p in records["1"]["passes"])
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_bench_rejects_index_with_shards(self, tmp_path):
        assert main(["bench", "--shards", "2",
                     "--index", str(tmp_path / "x.boss")]) == 2

    def test_trace_cluster_kill_shard_degrades(self, capsys):
        assert main(["trace", "--shards", "2", "--cluster-docs", "150",
                     "--kill-shard", "0", "--query", '"t0" OR "t1"']) == 0
        out = capsys.readouterr().out
        assert "DEGRADED" in out
        assert "failed shards: [0]" in out
        assert "shard 1: ok" in out

    def test_trace_cluster_failover_with_replica(self, capsys):
        assert main(["trace", "--shards", "2", "--cluster-docs", "150",
                     "--kill-shard", "0", "--replication", "2",
                     "--query", '"t0" OR "t1"']) == 0
        out = capsys.readouterr().out
        assert "DEGRADED" not in out
        assert "failovers=1" in out

    def test_trace_cluster_json_parses(self, capsys):
        import json

        assert main(["trace", "--shards", "2", "--cluster-docs", "150",
                     "--kill-shard", "0", "--query", '"t0"',
                     "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["shards_failed"] == [0]
        assert record["degraded"] is True
        assert any(o["failed"] for o in record["leaves"])

    def test_trace_requires_index_or_shards(self):
        assert main(["trace", "--query", '"t0"']) == 2


class TestServe:
    ARGS = ["serve", "--queries", "24", "--rate", "500", "--scale",
            "0.05", "--unique", "8"]

    def test_serve_prints_report(self, capsys):
        assert main(self.ARGS + ["--workers", "2", "--queue", "4"]) == 0
        out = capsys.readouterr().out
        assert "24 requests" in out
        assert "admission=reject" in out
        assert "served" in out and "shed" in out
        assert "qps achieved" in out
        assert "p99=" in out

    def test_serve_json_parses(self, capsys):
        import json

        assert main(self.ARGS + ["--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["num_requests"] == 24
        assert record["served"] + record["shed"] == 24
        assert record["admission"] == "reject"
        assert record["rate_qps"] == 500.0

    def test_serve_with_deadline_reports_slo(self, capsys):
        assert main(self.ARGS + ["--admission", "deadline",
                                 "--deadline-ms", "50"]) == 0
        out = capsys.readouterr().out
        assert "SLO 50ms" in out
        assert "attained" in out

    def test_serve_on_faulty_cluster(self, capsys):
        import json

        assert main(["serve", "--shards", "2", "--cluster-docs", "150",
                     "--queries", "12", "--rate", "300",
                     "--kill-shard", "0", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["shards"] == 2
        assert record["served_degraded"] == record["served"] > 0

    def test_serve_rejects_index_with_shards(self, tmp_path):
        assert main(["serve", "--shards", "2",
                     "--index", str(tmp_path / "x.boss")]) == 2

    def test_serve_from_index_file(self, index_file, capsys):
        assert main(["serve", "--index", str(index_file),
                     "--queries", "8", "--rate", "200",
                     "--unique", "4"]) == 0
        assert "8 requests" in capsys.readouterr().out

    def test_serve_planner_prints_traffic_split(self, capsys):
        assert main(self.ARGS + ["--planner", "--rate", "3000",
                                 "--tenants",
                                 "alpha=200000,beta=100000"]) == 0
        out = capsys.readouterr().out
        assert "I/O planner (planning on)" in out
        assert "staged in DRAM" in out
        assert "SCM miss traffic" in out
        assert "tenant alpha" in out and "tenant beta" in out

    def test_serve_planner_json_conserves_traffic(self, capsys):
        import json

        assert main(self.ARGS + ["--planner", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        planner = record["planner"]
        routed = (planner["dram_hit_bytes"] + planner["dedup_bytes"]
                  + planner["scm_seq_bytes"] + planner["scm_rand_bytes"])
        assert routed == planner["demand_bytes"] > 0
        assert record["served"] + record["shed"] == 24

    def test_serve_planner_off_baseline(self, capsys):
        import json

        assert main(self.ARGS + ["--planner", "--no-planning",
                                 "--json"]) == 0
        planner = json.loads(capsys.readouterr().out)["planner"]
        assert planner["dram_hit_bytes"] == planner["dedup_bytes"] == 0
        assert planner["demand_bytes"] > 0

    def test_serve_planner_serves_update_mix(self, capsys):
        import json

        assert main(self.ARGS + ["--planner", "--update-mix", "0.5",
                                 "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["updates_offered"] > 0
        assert record["planner"]["demand_bytes"] > 0

    def test_serve_planner_rejects_bad_tenant_spec(self):
        assert main(self.ARGS + ["--planner", "--tenants",
                                 "alpha"]) == 2


class TestRebalance:
    def test_default_demo_sequence(self, capsys):
        assert main(["rebalance", "--cluster-docs", "300"]) == 0
        out = capsys.readouterr().out
        assert "3 moves on 4 shards" in out
        assert "split shard 0" in out
        assert "merge shard 0" in out
        assert "add_replica" in out
        assert "bit-identical to the monolith" in out
        assert "0 aborted" in out

    def test_json_reports_conservation(self, capsys):
        import json

        assert main(["rebalance", "--shards", "3", "--replication", "2",
                     "--cluster-docs", "240", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["moves_published"] == 3
        assert record["moves_aborted"] == 0
        assert record["map_version"] == 3
        for move in record["moves"]:
            assert move["postings_out"] == move["postings_in"] > 0
            assert move["states"][-1] == "published"

    def test_script_file(self, tmp_path, capsys):
        import json

        script = tmp_path / "moves.rbs"
        script.write_text("split 0 40\nmerge 0\n# done\n")
        assert main(["rebalance", "--shards", "3", "--cluster-docs",
                     "240", "--script", str(script), "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert [m["kind"] for m in record["moves"]] == ["split", "merge"]
        assert record["shards_after"] == 3

    def test_empty_script_is_error(self, tmp_path):
        script = tmp_path / "empty.rbs"
        script.write_text("# nothing\n")
        assert main(["rebalance", "--script", str(script)]) == 2

    def test_invalid_move_is_error(self, tmp_path):
        script = tmp_path / "bad.rbs"
        script.write_text("merge 9\n")
        assert main(["rebalance", "--shards", "2", "--cluster-docs",
                     "200", "--script", str(script)]) == 2

    def test_serve_with_rebalance_script(self, tmp_path, capsys):
        import json

        script = tmp_path / "moves.rbs"
        script.write_text("@0.005 split 0 40\n@0.02 add-replica 1\n")
        assert main(["serve", "--shards", "2", "--replication", "2",
                     "--cluster-docs", "240", "--queries", "30",
                     "--rate", "1000", "--rebalance-script", str(script),
                     "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["moves_published"] == 2
        assert record["moves_aborted"] == 0
        assert record["final_shards"] == 3
        assert record["map_version"] == 2
        assert record["rebalance_read_bytes"] > 0
        assert record["served"] == 32  # 30 queries + 2 moves

    def test_serve_rebalance_script_requires_shards(self, tmp_path):
        script = tmp_path / "moves.rbs"
        script.write_text("merge 0\n")
        assert main(["serve", "--queries", "8",
                     "--rebalance-script", str(script)]) == 2

    def test_serve_rebalance_human_output(self, tmp_path, capsys):
        script = tmp_path / "moves.rbs"
        script.write_text("@0.01 split 0 60\n")
        assert main(["serve", "--shards", "2", "--cluster-docs", "240",
                     "--queries", "20", "--rate", "800",
                     "--rebalance-script", str(script)]) == 0
        out = capsys.readouterr().out
        assert "1 rebalance moves" in out
        assert "rebalance: 1 published, 0 aborted" in out
        assert "shard map v1" in out


class TestIngestCommand:
    def test_ingest_reports_traffic(self, capsys):
        import json

        assert main(["ingest", "--docs", "120", "--buffer", "16",
                     "--fanout", "3", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["docs_ingested"] == 120
        assert record["validation_ok"] is True
        assert record["seals"] > 0
        assert record["index_write_bytes"] >= record["sealed_bytes"]

    def test_ingest_wal_dir_fresh_then_recovered(self, tmp_path, capsys):
        import json

        wal_dir = tmp_path / "wal"
        assert main(["ingest", "--docs", "120", "--buffer", "16",
                     "--fanout", "3", "--wal-dir", str(wal_dir),
                     "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["validation_ok"] is True
        assert first["recovery"] is None
        assert first["wal"]["records_logged"] > 120  # adds + commits
        assert first["wal"]["bytes_logged"] > 0
        assert first["wal"]["manifest_writes"] == (
            1 + first["seals"] + first["merges"]
        )
        assert (wal_dir / "wal.log").exists()
        assert (wal_dir / "MANIFEST.json").exists()

        # A second run over the same directory recovers before ingesting.
        assert main(["ingest", "--docs", "40", "--buffer", "16",
                     "--fanout", "3", "--wal-dir", str(wal_dir),
                     "--json"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["validation_ok"] is True
        recovery = second["recovery"]
        assert recovery is not None
        assert recovery["records_replayed"] == first["wal"]["records_logged"]
        assert recovery["mutations_replayed"] == 120
        assert recovery["torn"] is None
        assert recovery["segments_loaded"] + recovery["segments_rebuilt"] > 0
        assert second["wal"]["records_logged"] > recovery["records_replayed"]

    def test_ingest_wal_dir_human_output(self, tmp_path, capsys):
        wal_dir = tmp_path / "wal"
        assert main(["ingest", "--docs", "60", "--buffer", "16",
                     "--wal-dir", str(wal_dir)]) == 0
        out = capsys.readouterr().out
        assert "WAL:" in out
        assert main(["ingest", "--docs", "20", "--buffer", "16",
                     "--wal-dir", str(wal_dir)]) == 0
        assert "recovered:" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value, message", [
        ("--vocab", "0", "vocabulary size must be >= 1, got 0"),
        ("--vocab", "-3", "vocabulary size must be >= 1, got -3"),
        ("--docs", "-4", "document count must be >= 0, got -4"),
        ("--delete-every", "-1", "--delete-every must be >= 0, got -1"),
    ], ids=["vocab-zero", "vocab-negative", "docs-negative",
            "delete-every-negative"])
    def test_ingest_rejects_bad_sizes(self, tmp_path, capsys, flag, value,
                                      message):
        wal_dir = tmp_path / "wal"
        assert main(["ingest", "--docs", "20", "--wal-dir", str(wal_dir),
                     flag, value]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        # Rejected before the durable directory is created.
        assert not wal_dir.exists()


class TestVsearch:
    ARGS = ["vsearch", "--scale", "0.05", "--queries", "6"]

    def test_query_set_report(self, capsys):
        for codec in ("fp32", "int8"):
            assert main(self.ARGS + ["--codec", codec]) == 0
            out = capsys.readouterr().out
            assert f"clusters ({codec})" in out
            assert "recall@10" in out
            assert "p99=" in out

    def test_query_set_json(self, capsys):
        import json

        assert main(self.ARGS + ["--codec", "int8", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["codec"] == "int8"
        assert record["queries"] == 6
        assert 0.0 <= record["recall_at_10"] <= 1.0
        assert record["packed_bytes"] > 0

    def test_single_query_conserved(self, capsys):
        assert main(["vsearch", "--scale", "0.05", "--query",
                     '"term0001" OR "term0005"']) == 0
        out = capsys.readouterr().out
        assert "B demand (conserved)" in out
        assert "probed" in out

    def test_single_query_json_has_ledger(self, capsys):
        import json

        assert main(["vsearch", "--scale", "0.05", "--query",
                     '"term0002"', "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert (
            record["centroid_bytes"]
            + record["cluster_seq_bytes"]
            + record["cluster_hop_bytes"]
            == record["demand_bytes"]
        )
        assert record["brute_force"]

    def test_save_and_reload_ivf(self, tmp_path, capsys):
        path = tmp_path / "lane.bossv"
        assert main(self.ARGS + ["--save", str(path)]) == 0
        assert path.exists()
        capsys.readouterr()
        assert main(self.ARGS + ["--ivf", str(path)]) == 0
        assert "recall@10" in capsys.readouterr().out


class TestSearchHybrid:
    def test_rerank_mode(self, index_file, capsys):
        assert main(["search", "--index", str(index_file), "--query",
                     '"bandwidth" OR "memory"', "--hybrid", "rerank"]) == 0
        out = capsys.readouterr().out
        assert "[hybrid:rerank]" in out
        assert "candidates rescored" in out
        assert "modeled end-to-end latency" in out

    def test_rrf_mode(self, index_file, capsys):
        assert main(["search", "--index", str(index_file), "--query",
                     '"bandwidth" OR "memory"', "--hybrid", "rrf",
                     "--codec", "int8"]) == 0
        out = capsys.readouterr().out
        assert "[hybrid:rrf]" in out
        assert "ANN probed" in out

    def test_hybrid_rejects_other_engines(self, index_file):
        assert main(["search", "--index", str(index_file), "--query",
                     '"memory"', "--hybrid", "rerank",
                     "--engine", "iiu"]) == 2


class TestServeHybrid:
    ARGS = ["serve", "--hybrid", "rrf", "--scale", "0.05",
            "--queries", "16", "--rate", "400"]

    def test_serve_hybrid_report(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "hybrid (rrf) requests" in out
        assert "vector lane:" in out
        assert "served 16" in out

    def test_serve_hybrid_json(self, capsys):
        import json

        assert main(self.ARGS + ["--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["hybrid"] == "rrf"
        assert record["clusters"] > 0
        assert record["served"] + record["shed"] == 16

    def test_serve_hybrid_rejects_index(self, tmp_path):
        assert main(["serve", "--hybrid", "rerank",
                     "--index", str(tmp_path / "x.boss")]) == 2

    def test_serve_hybrid_rejects_planner(self):
        assert main(self.ARGS + ["--planner"]) == 2
