"""Tests for elastic shard rebalancing (split / merge / replica moves).

The contract under test is the differential oracle the module promises:
cluster rankings are bit-identical to a static monolithic index
*before, during, and after* any topology move — across codecs, under
seeded leaf faults, and through mid-move crashes (which must cleanly
abort without publishing). Plus the bookkeeping around it: the
byte/posting conservation identity, draining-shard routing, WAL
bootstrap parity, the script parser, and the ``rebalance.*`` metrics.
"""

from bisect import bisect_right
from pathlib import Path

import pytest

from repro.clock import VirtualClock
from repro.cluster import (
    AddReplica,
    MergeShards,
    MoveReport,
    Rebalancer,
    RebalancingClusterTarget,
    SearchCluster,
    SplitShard,
    parse_rebalance_script,
    rebalance_requests,
    shard_documents,
)
from repro.core import BossAccelerator, BossConfig
from repro.errors import (
    ConfigurationError,
    CrashError,
    RebalanceError,
)
from repro.faults import ZERO_FAULTS, CrashSchedule, FaultConfig, \
    make_faulty_cluster
from repro.observability import RecordingObserver
from repro.workloads import synthetic_documents

from tests.conftest import hits_as_pairs

QUERIES = [
    '"t0"',
    '"t1" AND "t3"',
    '"t2" OR "t5"',
    '"t0" AND ("t2" OR "t4")',
    '"t1" OR "t4" OR "t7"',
    '"t6" AND ("t1" OR "t9")',
]


@pytest.fixture(scope="module")
def documents():
    return synthetic_documents(num_docs=480, seed=11)


@pytest.fixture(scope="module")
def monolith(documents):
    index = shard_documents(documents, 1).indexes[0]
    return BossAccelerator(index, BossConfig(k=10))


def _make_cluster(documents, num_shards=3, replication_factor=2, k=10,
                  schemes=None):
    sharded = shard_documents(documents, num_shards, schemes=schemes,
                              replication_factor=replication_factor)
    config = BossConfig(k=k)
    engines = [BossAccelerator(ix, config) for ix in sharded.indexes]
    replicas = [
        [BossAccelerator(ix, config) for ix in sharded.replica_indexes(s)]
        for s in range(sharded.num_shards)
    ]
    cluster = SearchCluster(engines, replicas=replicas)
    return cluster, sharded


def _assert_matches_monolith(cluster, monolith, k=10):
    for expression in QUERIES:
        assert hits_as_pairs(cluster.search(expression, k=k), digits=12) \
            == hits_as_pairs(monolith.search(expression, k=k), digits=12), \
            expression


class TestScriptParser:
    def test_full_script(self):
        ops = parse_rebalance_script(
            "# warm up first\n"
            "@0.05 split 0 300   # hot shard\n"
            "merge 1\n"
            "@0.2 add-replica 2\n"
            "@0.3 add-replica 0 /tmp/wal-dir\n"
        )
        assert ops == [
            (0.05, SplitShard(0, 300)),
            (0.0, MergeShards(1)),
            (0.2, AddReplica(2)),
            (0.3, AddReplica(0, "/tmp/wal-dir")),
        ]

    def test_blank_and_comment_lines_skipped(self):
        assert parse_rebalance_script("\n# nothing\n   \n") == []

    @pytest.mark.parametrize("line", [
        "@x split 0 10",
        "@0.5",
        "split 0",
        "split 0 ten",
        "merge",
        "shrink 2",
        "add-replica",
    ])
    def test_malformed_lines_rejected(self, line):
        with pytest.raises(RebalanceError):
            parse_rebalance_script(line)


class TestValidation:
    def test_unknown_shard(self, documents):
        cluster, sharded = _make_cluster(documents)
        rebalancer = Rebalancer(cluster, sharded)
        with pytest.raises(RebalanceError):
            rebalancer.execute(SplitShard(7, 100))
        with pytest.raises(RebalanceError):
            rebalancer.execute(MergeShards(-1))

    def test_split_point_outside_interval(self, documents):
        cluster, sharded = _make_cluster(documents)
        rebalancer = Rebalancer(cluster, sharded)
        lo, hi = sharded.boundaries[1], sharded.boundaries[2]
        for at in (lo, hi, lo - 1):
            with pytest.raises(RebalanceError):
                rebalancer.execute(SplitShard(1, at))

    def test_merge_needs_right_neighbour(self, documents):
        cluster, sharded = _make_cluster(documents)
        rebalancer = Rebalancer(cluster, sharded)
        with pytest.raises(RebalanceError):
            rebalancer.execute(MergeShards(sharded.num_shards - 1))

    def test_wal_dir_must_exist(self, documents):
        cluster, sharded = _make_cluster(documents)
        rebalancer = Rebalancer(cluster, sharded)
        with pytest.raises(RebalanceError):
            rebalancer.execute(AddReplica(0, "/no/such/dir"))
        # Nothing was recorded: the failure happened in planning.
        assert rebalancer.reports == []


class TestDifferentialOracle:
    """Rankings pinned to the monolith through every move."""

    def test_split_merge_replica_sequence(self, documents, monolith):
        cluster, sharded = _make_cluster(documents)
        rebalancer = Rebalancer(cluster, sharded)
        _assert_matches_monolith(cluster, monolith)

        lo, hi = sharded.boundaries[0], sharded.boundaries[1]
        moves = [
            SplitShard(0, (lo + hi) // 2),
            MergeShards(1),
            AddReplica(sharded.num_shards - 1),
            MergeShards(0),
        ]
        versions = []
        for op in moves:
            report = rebalancer.execute(op)
            versions.append(report.map_version)
            assert report.states[0] == "planned"
            assert report.states[-1] == "published"
            assert not report.aborted
            _assert_matches_monolith(cluster, monolith)
        assert versions == [1, 2, 3, 4]
        assert cluster.map_version == 4
        assert rebalancer.moves_published == 4

    def test_boundaries_track_moves(self, documents):
        cluster, sharded = _make_cluster(documents, num_shards=3)
        rebalancer = Rebalancer(cluster, sharded)
        before = list(sharded.boundaries)
        at = (before[0] + before[1]) // 2
        rebalancer.execute(SplitShard(0, at))
        assert sharded.num_shards == 4
        assert sharded.boundaries == sorted(set(before) | {at})
        assert bisect_right(sharded.boundaries, at - 1) - 1 == 0
        assert bisect_right(sharded.boundaries, at) - 1 == 1
        rebalancer.execute(MergeShards(0))
        assert sharded.boundaries == before

    @pytest.mark.parametrize("codec", ["VB", "S8b", "PFD", "GVB"])
    def test_oracle_holds_per_codec(self, documents, codec):
        mono_index = shard_documents(documents, 1,
                                     schemes=[codec]).indexes[0]
        monolith = BossAccelerator(mono_index, BossConfig(k=10))
        cluster, sharded = _make_cluster(documents, schemes=[codec])
        rebalancer = Rebalancer(cluster, sharded)
        lo, hi = sharded.boundaries[1], sharded.boundaries[2]
        rebalancer.execute(SplitShard(1, (lo + hi) // 2))
        rebalancer.execute(MergeShards(1))
        rebalancer.execute(AddReplica(0))
        _assert_matches_monolith(cluster, monolith)

    def test_oracle_holds_under_seeded_leaf_faults(self, documents,
                                                   monolith):
        from repro.cluster.resilience import ResiliencePolicy

        faults = FaultConfig(seed=3, transient_failure_probability=0.4)
        policy = ResiliencePolicy(max_retries=2, allow_degraded=True)
        cluster, sharded = make_faulty_cluster(
            documents, 3, faults=faults, policy=policy,
            replication_factor=2, replica_faults=ZERO_FAULTS,
        )
        rebalancer = Rebalancer(cluster, sharded)
        lo, hi = sharded.boundaries[0], sharded.boundaries[1]
        rebalancer.execute(SplitShard(0, (lo + hi) // 2))
        rebalancer.execute(MergeShards(0))
        results = [cluster.search(e, k=10) for e in QUERIES]
        assert all(not r.degraded for r in results)
        for expression, result in zip(QUERIES, results):
            assert hits_as_pairs(result, digits=12) == hits_as_pairs(
                monolith.search(expression, k=10), digits=12
            ), expression


class TestDrainingRouting:
    def test_draining_prefers_replicas(self, documents):
        cluster, _ = _make_cluster(documents, replication_factor=2)
        primary_first = cluster.shard_candidates(1)
        cluster.set_draining(1, True)
        replica_first = cluster.shard_candidates(1)
        assert replica_first[-1] is primary_first[0]
        assert replica_first[:-1] == primary_first[1:]
        assert cluster.draining == frozenset({1})
        cluster.set_draining(1, False)
        assert cluster.shard_candidates(1) == primary_first

    def test_unreplicated_drain_keeps_primary(self, documents):
        cluster, _ = _make_cluster(documents, replication_factor=1)
        cluster.set_draining(0, True)
        assert len(cluster.shard_candidates(0)) == 1

    def test_draining_validates_shard(self, documents):
        cluster, _ = _make_cluster(documents)
        with pytest.raises(ConfigurationError):
            cluster.set_draining(9, True)

    def test_publish_clears_draining(self, documents, monolith):
        cluster, sharded = _make_cluster(documents)
        rebalancer = Rebalancer(cluster, sharded)
        rebalancer.execute(AddReplica(0))
        assert cluster.draining == frozenset()
        _assert_matches_monolith(cluster, monolith)

    def test_publish_topology_validated(self, documents):
        cluster, _ = _make_cluster(documents)
        with pytest.raises(ConfigurationError):
            cluster.publish_topology([])
        with pytest.raises(ConfigurationError):
            cluster.publish_topology(list(cluster.engines),
                                     [[]])  # wrong replica-list length


class TestConservation:
    def test_postings_and_bytes_conserved(self, documents):
        cluster, sharded = _make_cluster(documents)
        rebalancer = Rebalancer(cluster, sharded)
        lo, hi = sharded.boundaries[0], sharded.boundaries[1]
        report = rebalancer.execute(SplitShard(0, (lo + hi) // 2))
        assert report.postings_out == report.postings_in > 0
        assert report.read_bytes > 0 and report.write_bytes > 0
        report.check_conservation()  # still consistent post-publish

    def test_violation_blocks_publish(self):
        report = MoveReport(kind="split", shard=0, detail="tampered")
        report.postings_out, report.postings_in = 10, 9
        with pytest.raises(RebalanceError):
            report.check_conservation()

    def test_traffic_counter_must_agree(self):
        report = MoveReport(kind="merge", shard=0, detail="tampered")
        report.read_bytes = 100  # counter never recorded these bytes
        with pytest.raises(RebalanceError):
            report.check_conservation()


class TestCrashAbort:
    """A mid-move crash aborts cleanly; re-running the move completes."""

    @pytest.mark.parametrize("kill_point", [
        "rebalance_mid_stream", "rebalance_pre_publish",
    ])
    def test_crash_aborts_then_resumes(self, documents, monolith,
                                       kill_point):
        cluster, sharded = _make_cluster(documents)
        crash = CrashSchedule(kill_point)
        rebalancer = Rebalancer(cluster, sharded, crash=crash)
        lo, hi = sharded.boundaries[0], sharded.boundaries[1]
        op = SplitShard(0, (lo + hi) // 2)
        version = cluster.map_version

        with pytest.raises(CrashError):
            rebalancer.execute(op)
        report = rebalancer.reports[-1]
        assert report.aborted
        assert "published" not in report.states
        assert report.map_version == 0
        assert cluster.map_version == version  # old map still serving
        assert sharded.num_shards == 3
        assert cluster.draining == frozenset()
        _assert_matches_monolith(cluster, monolith)

        # The schedule is spent: the same move now completes.
        resumed = rebalancer.execute(op)
        assert not resumed.aborted
        assert cluster.map_version == version + 1
        assert sharded.num_shards == 4
        _assert_matches_monolith(cluster, monolith)
        assert rebalancer.moves_aborted == 1
        assert rebalancer.moves_published == 1

    def test_mid_catchup_crash_aborts_wal_bootstrap(self, documents,
                                                    monolith, tmp_path):
        cluster, sharded = _make_cluster(documents)
        wal_dir = _write_shard_wal(tmp_path, documents, sharded, shard=0)
        crash = CrashSchedule("rebalance_mid_catchup")
        rebalancer = Rebalancer(cluster, sharded, crash=crash)
        op = AddReplica(0, str(wal_dir))
        with pytest.raises(CrashError):
            rebalancer.execute(op)
        assert rebalancer.reports[-1].aborted
        assert len(cluster.replicas[0]) == 1  # chain unchanged
        _assert_matches_monolith(cluster, monolith)
        resumed = rebalancer.execute(op)
        assert resumed.states == ["planned", "streaming", "catchup",
                                  "published"]
        assert len(cluster.replicas[0]) == 2


def _write_shard_wal(tmp_path, documents, sharded, shard,
                     extra_churn=True):
    """Log shard ``shard``'s documents as a durable-writer op stream."""
    from repro.live.durable import WAL_NAME
    from repro.live.wal import AddRecord, DeleteRecord, WriteAheadLog

    wal_dir = tmp_path / f"wal-shard-{shard}"
    wal_dir.mkdir()
    log = WriteAheadLog(wal_dir / WAL_NAME)
    lo, hi = sharded.boundaries[shard], sharded.boundaries[shard + 1]
    for doc_id in range(lo, hi):
        log.append(AddRecord(doc_id, tuple(documents[doc_id])))
    if extra_churn:
        # An add later undone by a delete: replay must cancel it out.
        log.append(AddRecord(hi + 1000, ("t0", "t1")))
        log.append(DeleteRecord(hi + 1000))
    log.close()
    return wal_dir


class TestWalBootstrap:
    def test_replica_catches_up_from_wal(self, documents, monolith,
                                         tmp_path):
        cluster, sharded = _make_cluster(documents)
        wal_dir = _write_shard_wal(tmp_path, documents, sharded, shard=1)
        rebalancer = Rebalancer(cluster, sharded)
        report = rebalancer.execute(AddReplica(1, str(wal_dir)))
        assert report.states == ["planned", "streaming", "catchup",
                                 "published"]
        assert report.postings_out == report.postings_in > 0
        assert len(cluster.replicas[1]) == 2
        _assert_matches_monolith(cluster, monolith)

    def test_diverged_wal_fails_parity(self, documents, tmp_path):
        from repro.live.durable import WAL_NAME
        from repro.live.wal import AddRecord, WriteAheadLog

        cluster, sharded = _make_cluster(documents)
        wal_dir = tmp_path / "diverged"
        wal_dir.mkdir()
        log = WriteAheadLog(wal_dir / WAL_NAME)
        lo, hi = sharded.boundaries[0], sharded.boundaries[1]
        for doc_id in range(lo, max(lo + 1, hi - 5)):  # missing the tail
            log.append(AddRecord(doc_id, tuple(documents[doc_id])))
        log.close()
        rebalancer = Rebalancer(cluster, sharded)
        version = cluster.map_version
        with pytest.raises(RebalanceError):
            rebalancer.execute(AddReplica(0, str(wal_dir)))
        assert cluster.map_version == version
        assert len(cluster.replicas[0]) == 1
        assert rebalancer.reports[-1].aborted


class TestObservability:
    def test_rebalance_metrics_exported(self, documents):
        observer = RecordingObserver()
        cluster, sharded = _make_cluster(documents)
        rebalancer = Rebalancer(cluster, sharded, observer=observer)
        lo, hi = sharded.boundaries[0], sharded.boundaries[1]
        report = rebalancer.execute(SplitShard(0, (lo + hi) // 2))

        metrics = observer.metrics
        moved = metrics.get("rebalance.postings_moved")
        # The exported conservation identity: out == in.
        assert moved.value(direction="out") == report.postings_out
        assert moved.value(direction="in") == report.postings_in
        assert moved.value(direction="out") == moved.value(direction="in")
        assert metrics.get("rebalance.read_bytes").total() \
            == report.read_bytes
        assert metrics.get("rebalance.write_bytes").total() \
            == report.write_bytes
        assert metrics.get("rebalance.moves").value(
            kind="split", outcome="published") == 1
        steps = metrics.get("rebalance.steps")
        assert steps.value(kind="split", state="streaming") == 1
        assert metrics.get("rebalance.map_version").value() == 1

    def test_aborted_move_keeps_map_version_gauge(self, documents):
        observer = RecordingObserver()
        cluster, sharded = _make_cluster(documents)
        rebalancer = Rebalancer(cluster, sharded, observer=observer,
                                crash=CrashSchedule("rebalance_mid_stream"))
        with pytest.raises(CrashError):
            rebalancer.execute(MergeShards(0))
        assert observer.metrics.get("rebalance.moves").value(
            kind="merge", outcome="aborted") == 1


class TestServingIntegration:
    def test_moves_ride_the_serving_timeline(self, documents, monolith):
        from repro.serving import (QueryServer, ServingConfig,
                                   splice_requests, zipf_workload)

        clock = VirtualClock()
        cluster, sharded = make_faulty_cluster(
            documents, 3, replication_factor=2, clock=clock
        )
        rebalancer = Rebalancer(cluster, sharded, clock=clock)
        target = RebalancingClusterTarget(cluster, rebalancer)
        vocab = [f"t{i}" for i in range(40)]
        queries = zipf_workload(vocab, 50, 1500.0, unique_queries=10,
                                seed=5)
        lo, hi = sharded.boundaries[0], sharded.boundaries[1]
        moves = rebalance_requests([
            (0.004, SplitShard(0, (lo + hi) // 2)),
            (0.02, MergeShards(0)),
        ])
        workload = splice_requests(queries, moves)
        config = ServingConfig(workers=2, queue_capacity=32,
                               admission="reject", k=10)
        report = QueryServer(
            target, config, service_time=target.service_time, clock=clock
        ).serve(workload).report

        assert report.served == len(workload)
        assert rebalancer.moves_published == 2
        assert cluster.map_version == 2
        assert sharded.num_shards == 3
        _assert_matches_monolith(cluster, monolith)

    def test_replay_is_deterministic(self, documents):
        from repro.serving import (QueryServer, ServingConfig,
                                   splice_requests, zipf_workload)

        def run():
            clock = VirtualClock()
            cluster, sharded = make_faulty_cluster(
                documents, 3, replication_factor=2, clock=clock
            )
            rebalancer = Rebalancer(cluster, sharded, clock=clock)
            target = RebalancingClusterTarget(cluster, rebalancer)
            vocab = [f"t{i}" for i in range(40)]
            lo, hi = sharded.boundaries[0], sharded.boundaries[1]
            workload = splice_requests(
                zipf_workload(vocab, 40, 2000.0, unique_queries=8, seed=9),
                rebalance_requests([(0.003, SplitShard(0, (lo + hi) // 2))]),
            )
            config = ServingConfig(workers=2, queue_capacity=16,
                                   admission="reject", k=10)
            result = QueryServer(target, config,
                                 service_time=target.service_time,
                                 clock=clock).serve(workload)
            return (
                [(o.request_id, round(o.latency_seconds, 12))
                 for o in result.outcomes if o.served],
                rebalancer.total_read_bytes,
            )

        assert run() == run()

    def test_queries_queue_behind_maintenance_window(self, documents):
        cluster, sharded = _make_cluster(documents)
        clock = VirtualClock()
        rebalancer = Rebalancer(cluster, sharded, clock=clock)
        target = RebalancingClusterTarget(cluster, rebalancer)

        class _Probe:
            arrival_seconds = 1.0
            update = None

        result = cluster.search('"t0"', k=10)
        idle = target.service_time(_Probe(), result)
        rebalancer.busy_until = 3.5  # an in-flight move owns the device
        backed_up = target.service_time(_Probe(), result)
        assert backed_up == pytest.approx(idle + 2.5)

    def test_rejects_foreign_updates(self, documents):
        from repro.serving import Request

        cluster, sharded = _make_cluster(documents)
        target = RebalancingClusterTarget(cluster,
                                          Rebalancer(cluster, sharded))
        request = Request(request_id=0, arrival_seconds=0.0,
                          expression="<update:add>",
                          update=("add", ("t0",)))
        with pytest.raises(ConfigurationError):
            target.apply_update(request)

    def test_rebalance_requests_sorted_and_tagged(self):
        requests = rebalance_requests([
            (0.2, MergeShards(1)), (0.1, SplitShard(0, 5)),
        ])
        assert [r.arrival_seconds for r in requests] == [0.1, 0.2]
        assert all(r.update[0] == "rebalance" for r in requests)
        assert requests[0].update[1] == SplitShard(0, 5)


class TestPlannerIntegration:
    def test_planner_serves_across_topology_swap(self, documents,
                                                 monolith):
        from repro.ioplanner import PlannedQueryServer, PlannerConfig
        from repro.serving import splice_requests, zipf_workload

        clock = VirtualClock()
        cluster, sharded = make_faulty_cluster(
            documents, 3, replication_factor=2, clock=clock
        )
        rebalancer = Rebalancer(cluster, sharded, clock=clock)
        target = RebalancingClusterTarget(cluster, rebalancer)
        vocab = [f"t{i}" for i in range(40)]
        lo, hi = sharded.boundaries[0], sharded.boundaries[1]
        workload = splice_requests(
            zipf_workload(vocab, 40, 1000.0, unique_queries=8, seed=3),
            rebalance_requests([(0.01, SplitShard(0, (lo + hi) // 2))]),
        )
        config = PlannerConfig(window_seconds=0.002, workers=2,
                               queue_capacity=64, k=10)
        result = PlannedQueryServer(target, config).serve(workload)
        assert result.report.served == len(workload)
        assert rebalancer.moves_published == 1
        assert sharded.num_shards == 4
        _assert_matches_monolith(cluster, monolith)
