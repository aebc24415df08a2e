"""The ServingTarget protocol and the one maintenance timeline."""

from types import SimpleNamespace

import pytest

from repro.clock import WALL_CLOCK, VirtualClock
from repro.cluster import MoveReport, Rebalancer, RebalancingClusterTarget
from repro.core import BossAccelerator, BossConfig
from repro.core.result import SearchResult
from repro.errors import ConfigurationError
from repro.faults import make_faulty_cluster
from repro.live import LiveIndexWriter, LiveServingTarget
from repro.live.merge import MergePlan
from repro.scm.device import OPTANE_NODE_4CH
from repro.scm.traffic import AccessClass, AccessPattern, TrafficCounter
from repro.serving import Request, ServingTarget
from repro.serving.target import MaintenanceTimeline
from repro.vector import HybridSearch, HybridServingTarget
from repro.workloads import synthetic_documents
from tests.conftest import build_random_index


def _live_target():
    return LiveServingTarget(LiveIndexWriter())


def _rebalancing_target():
    clock = VirtualClock()
    cluster, sharded = make_faulty_cluster(
        synthetic_documents(num_docs=120, seed=3), 2, clock=clock)
    return RebalancingClusterTarget(
        cluster, Rebalancer(cluster, sharded, clock=clock))


def _hybrid_target():
    # The protocol check never searches, so no vector lane is needed.
    engine = SimpleNamespace(device=OPTANE_NODE_4CH)
    return HybridServingTarget(HybridSearch(None, engine, mode="rrf"))


class TestProtocol:
    @pytest.mark.parametrize("make", [_live_target, _rebalancing_target,
                                      _hybrid_target])
    def test_adapters_implement_it(self, make):
        assert isinstance(make(), ServingTarget)

    def test_bare_engine_does_not(self):
        index = build_random_index(num_docs=50, vocab_size=8, seed=1)
        assert not isinstance(BossAccelerator(index, BossConfig()),
                              ServingTarget)

    def test_targets_share_their_maintenance_clock(self):
        """The protocol carries no clock: a stateful target's clock is
        its maintenance timeline's, which its owner also runs on."""
        live, moving = _live_target(), _rebalancing_target()
        assert live.timeline is live.writer.scheduler
        assert live.timeline.clock is live.writer.clock
        assert moving.timeline is moving.rebalancer
        assert moving.timeline.clock is not None
        for target in (live, moving, _hybrid_target()):
            assert not hasattr(target, "clock")
        assert "clock" not in vars(ServingTarget).get("__annotations__", {})

    def test_hybrid_target_is_read_only(self):
        request = Request(0, 0.0, "<update:add>", update=("add", ("t0",)))
        with pytest.raises(ConfigurationError, match="read-only"):
            _hybrid_target().apply_update(request)


def _timeline(clock):
    return MaintenanceTimeline(OPTANE_NODE_4CH, clock)


def _traffic(cls, nbytes):
    traffic = TrafficCounter()
    traffic.record(cls, AccessPattern.SEQUENTIAL, nbytes)
    return traffic


class TestTimelineMechanics:
    def test_advance_moves_a_lagging_virtual_clock(self):
        clock = VirtualClock()
        clock.advance(1.0)
        _timeline(clock).advance_to_arrival(Request(0, 2.5, '"t0"'))
        assert clock.now() == 2.5
        assert clock.sleeps == []

    def test_advance_never_moves_time_backwards(self):
        clock = VirtualClock()
        clock.advance(3.0)
        _timeline(clock).advance_to_arrival(Request(0, 2.5, '"t0"'))
        assert clock.now() == 3.0

    def test_advance_leaves_wall_and_missing_clocks_alone(self):
        request = Request(0, 1e9, '"t0"')
        _timeline(WALL_CLOCK).advance_to_arrival(request)
        _timeline(None).advance_to_arrival(request)

    def test_reads_queue_behind_the_busy_window(self):
        timeline = _timeline(VirtualClock())
        timeline.busy_until = 0.5
        assert timeline.read_delay(1.0) == 0.0
        timeline.busy_until = 1.25
        assert timeline.read_delay(1.0) == 0.25

    def test_windows_queue_fifo_from_now(self):
        clock = VirtualClock()
        timeline = _timeline(clock)
        clock.advance(1.0)
        assert timeline.occupy(0.5) == (1.0, 1.5)
        assert timeline.occupy(0.25) == (1.5, 1.75)
        assert (timeline.busy_until, timeline.busy_seconds) == (1.75, 0.75)

    def test_no_clock_opens_windows_from_zero(self):
        timeline = _timeline(None)
        assert timeline.occupy(0.5) == (0.0, 0.5)


class TestOneTimeline:
    """Seals, merges and shard moves occupy the device one way, and
    reads wait behind any of them one way."""

    NBYTES = 1 << 20

    def _timelines(self):
        """A fresh live writer and rebalancer on the same device, each
        with its clock at 0.25 and a window in flight until 0.5."""
        writer = LiveIndexWriter(device=OPTANE_NODE_4CH)
        clock = VirtualClock()
        rebalancer = Rebalancer(None, None, clock=clock)
        for timeline in (writer.scheduler, rebalancer):
            timeline.clock.advance(0.25)
            timeline.busy_until = 0.5
        return writer, rebalancer

    def test_seal_merge_and_move_with_equal_traffic_open_equal_windows(
            self):
        writes = _traffic(AccessClass.ST_INDEX, self.NBYTES)
        seconds = OPTANE_NODE_4CH.service_time(writes)

        writer, _ = self._timelines()
        seal = writer.scheduler.record_seal(
            SimpleNamespace(nbytes=self.NBYTES, segment_id=0))
        writer, _ = self._timelines()
        # Recovery's entry point: an installed merge with given traffic.
        merge = writer.scheduler._install_merge(MergePlan([], 1), None,
                                                writes)
        _, rebalancer = self._timelines()
        report = MoveReport(kind="split", shard=0, traffic=writes)
        rebalancer._finish(report)

        assert seal == (merge.started, merge.finished)
        assert seal == (0.5, 0.5 + seconds)
        assert report.modeled_seconds == seconds
        assert rebalancer.busy_until == seal[1]

    def test_equal_reads_get_equal_delays(self):
        writer, rebalancer = self._timelines()
        live = LiveServingTarget(writer)
        moving = RebalancingClusterTarget(None, rebalancer)
        result = SearchResult(query=None, hits=[],
                              traffic=_traffic(AccessClass.LD_LIST, 4096))
        read = OPTANE_NODE_4CH.service_time(result.traffic)
        request = Request(0, 0.375, '"t0"')
        assert (live.service_time(request, result)
                == moving.service_time(request, result)
                == read + 0.125)
        late = Request(1, 0.75, '"t0"')
        assert (live.service_time(late, result)
                == moving.service_time(late, result) == read)
