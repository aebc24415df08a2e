"""The ServingTarget protocol and its shared timeline mechanics."""

from types import SimpleNamespace

import pytest

from repro.clock import WALL_CLOCK, VirtualClock
from repro.cluster import Rebalancer, RebalancingClusterTarget
from repro.core import BossAccelerator, BossConfig
from repro.errors import ConfigurationError
from repro.faults import make_faulty_cluster
from repro.live import LiveIndexWriter, LiveServingTarget
from repro.scm.device import OPTANE_NODE_4CH
from repro.scm.traffic import AccessClass, AccessPattern, TrafficCounter
from repro.serving import Request, ServingTarget
from repro.serving.target import advance_to_arrival, queued_read_seconds
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
        live, moving = _live_target(), _rebalancing_target()
        assert live.clock is live.writer.clock
        assert moving.clock is moving.rebalancer.clock
        assert _hybrid_target().clock is None

    def test_hybrid_target_is_read_only(self):
        request = Request(0, 0.0, "<update:add>", update=("add", ("t0",)))
        with pytest.raises(ConfigurationError, match="read-only"):
            _hybrid_target().apply_update(request)


class TestTimelineMechanics:
    def test_advance_moves_a_lagging_virtual_clock(self):
        clock = VirtualClock()
        clock.advance(1.0)
        advance_to_arrival(clock, Request(0, 2.5, '"t0"'))
        assert clock.now() == 2.5
        assert clock.sleeps == []

    def test_advance_never_moves_time_backwards(self):
        clock = VirtualClock()
        clock.advance(3.0)
        advance_to_arrival(clock, Request(0, 2.5, '"t0"'))
        assert clock.now() == 3.0

    def test_advance_leaves_wall_and_missing_clocks_alone(self):
        request = Request(0, 1e9, '"t0"')
        advance_to_arrival(WALL_CLOCK, request)
        advance_to_arrival(None, request)

    def test_reads_queue_behind_the_busy_window(self):
        traffic = TrafficCounter()
        traffic.record(AccessClass.LD_LIST, AccessPattern.SEQUENTIAL, 4096)
        result = SimpleNamespace(traffic=traffic)
        read = OPTANE_NODE_4CH.service_time(traffic)
        request = Request(0, 1.0, '"t0"')
        assert queued_read_seconds(
            OPTANE_NODE_4CH, result, 0.5, request) == read
        assert queued_read_seconds(
            OPTANE_NODE_4CH, result, 1.25, request) == read + 0.25
