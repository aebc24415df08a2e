"""Reads wait for maintenance under both serving loops.

One read arrives inside a live merge window, one inside a rebalance
move window. Served by the plain :class:`~repro.serving.QueryServer`
and by the :class:`~repro.ioplanner.PlannedQueryServer`, each such read
is charged its wait for the window — it completes after the device's
``busy_until`` — and the reads complete in the same order under both.
"""

import random

import pytest

from repro.clock import VirtualClock
from repro.cluster import Rebalancer, RebalancingClusterTarget, SplitShard
from repro.faults import ZERO_FAULTS, make_faulty_cluster
from repro.ioplanner import PlannedQueryServer, PlannerConfig
from repro.live import LiveIndexWriter, LiveServingTarget, MergePolicy
from repro.scm.device import OPTANE_NODE_4CH
from repro.serving import QueryServer, Request, ServingConfig
from repro.workloads import synthetic_documents

VOCAB = [f"t{i}" for i in range(24)]
BUFFER_DOCS = 64
#: The maintenance request arrives here, in the second planning window.
MAINTENANCE_AT = 0.003


def _live():
    """A live index one document short of a seal whose segment makes a
    merge (fanout 2), on an idle device."""
    writer = LiveIndexWriter(device=OPTANE_NODE_4CH,
                             buffer_docs=BUFFER_DOCS,
                             policy=MergePolicy(fanout=2))
    rng = random.Random("maintenance-reads")
    for i in range(2 * BUFFER_DOCS - 1):
        writer.add_document([VOCAB[i % len(VOCAB)]]
                            + rng.choices(VOCAB, k=12))
    writer.scheduler.busy_until = writer.clock.now()
    update = Request(1, MAINTENANCE_AT, "<update:add>",
                     update=("add", ("t0", "t1", "t2")))
    return LiveServingTarget(writer), update


def _moving():
    clock = VirtualClock()
    cluster, sharded = make_faulty_cluster(
        synthetic_documents(num_docs=240, seed=7), 3,
        faults=ZERO_FAULTS, k=10, clock=clock)
    target = RebalancingClusterTarget(
        cluster, Rebalancer(cluster, sharded, clock=clock, k=10))
    move = Request(1, MAINTENANCE_AT, "<rebalance>",
                   update=("rebalance", SplitShard(0, 40)))
    return target, move


def _window(make):
    """(start, end) of the last maintenance window ``make``'s update
    opens on an otherwise idle target."""
    target, update = make()
    target.apply_update(update)
    timeline = target.timeline
    if isinstance(target, LiveServingTarget):
        record = timeline.records[-1]
        return record.started, record.finished
    return (timeline.busy_until - timeline.reports[-1].modeled_seconds,
            timeline.busy_until)


def _serve(make, planned):
    start, end = _window(make)
    target, update = make()
    requests = [
        Request(0, 0.0005, '"t0"'),
        update,
        # A quarter into the window: the read queues behind the rest.
        Request(2, start + (end - start) / 4, '"t1" OR "t2"'),
        Request(3, 0.009, '"t0" AND "t1"'),
    ]
    if planned:
        server = PlannedQueryServer(target, PlannerConfig(k=10))
    else:
        server = QueryServer(target, ServingConfig(workers=4, k=10),
                             service_time=target.service_time)
    result = server.serve(requests)
    assert target.timeline.busy_until == end
    return requests, result.outcomes, end


@pytest.mark.parametrize("make", [_live, _moving], ids=["merge", "move"])
class TestReadsWaitForMaintenance:
    @pytest.mark.parametrize("planned", [False, True],
                             ids=["unplanned", "planned"])
    def test_the_read_inside_the_window_waits_it_out(self, make, planned):
        requests, outcomes, busy_until = _serve(make, planned)
        inside = outcomes[2]
        assert requests[2].arrival_seconds < busy_until
        assert inside.served
        assert inside.completion_seconds > busy_until
        assert (inside.completion_seconds - inside.start_seconds
                > busy_until - requests[2].arrival_seconds)

    def test_reads_complete_in_the_same_order(self, make):
        def read_order(planned):
            requests, outcomes, _ = _serve(make, planned)
            reads = [outcome for request, outcome
                     in zip(requests, outcomes) if request.update is None]
            assert all(outcome.served for outcome in reads)
            return [outcome.request_id for outcome in sorted(
                reads, key=lambda outcome: outcome.completion_seconds)]

        assert read_order(planned=False) == read_order(planned=True)
