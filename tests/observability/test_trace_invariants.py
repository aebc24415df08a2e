"""The two structural invariants every QueryTrace must satisfy.

* **Traffic conservation** — the per-stage ``bytes_moved`` attribution
  sums to exactly the engine's ``TrafficCounter`` total. No byte is
  counted twice and none is dropped, for any query shape or engine.
* **Additivity** — the per-stage modeled times sum to the reported
  (serialized) query latency within float tolerance.

Both are checked over a mixed AND/OR query set against the live
``BossSession -> RecordingObserver`` path and against traces built
directly from IIU results.
"""

import json

import pytest

from repro.api import BossSession
from repro.baselines import IIUAccelerator, IIUConfig
from repro.core import BossAccelerator, BossConfig
from repro.observability import (
    ALL_STAGES,
    NULL_OBSERVER,
    PIPELINE_STAGES,
    QueryTrace,
    RecordingObserver,
    build_trace,
    observing,
)
from repro.observability.trace import STAGE_MEMORY, stage_byte_totals
from repro.sim.timing import IIUTimingModel
from tests.conftest import build_random_index

QUERIES = [
    '"t0"',
    '"t3"',
    '"t1" AND "t2"',
    '"t0" AND "t1" AND "t4"',
    '"t2" OR "t6"',
    '"t1" OR "t5" OR "t9" OR "t12"',
    '"t0" AND ("t3" OR "t7")',
    '("t1" OR "t2") AND ("t4" OR "t8" OR "t15")',
]


@pytest.fixture(scope="module")
def index():
    return build_random_index(num_docs=800, vocab_size=30, seed=11)


@pytest.fixture(scope="module")
def boss_traces(index):
    observer = RecordingObserver()
    session = BossSession(BossConfig(k=10), observer=observer)
    session.init(index)
    for expression in QUERIES:
        session.search(expression)
    return observer.traces


@pytest.fixture(scope="module")
def iiu_pairs(index):
    engine = IIUAccelerator(index, IIUConfig(k=10))
    model = IIUTimingModel()
    out = []
    for expression in QUERIES:
        result = engine.search(expression)
        out.append((result, build_trace(model, result, engine="IIU")))
    return out


class TestTrafficConservation:
    def test_boss_span_bytes_match_traffic_totals(self, index, boss_traces):
        engine = BossAccelerator(index, BossConfig(k=10))
        for expression, trace in zip(QUERIES, boss_traces):
            result = engine.search(expression)
            assert trace.total_bytes == result.traffic.total_bytes, expression

    def test_iiu_span_bytes_match_traffic_totals(self, iiu_pairs):
        for result, trace in iiu_pairs:
            assert trace.total_bytes == result.traffic.total_bytes

    def test_traffic_entries_conserve_too(self, iiu_pairs):
        # The flattened per-(class, pattern) entries carry the same
        # total as the span attribution — two views of one quantity.
        for result, trace in iiu_pairs:
            assert sum(e.bytes for e in trace.traffic) == trace.total_bytes
            per_stage = stage_byte_totals(trace.traffic)
            assert sum(per_stage.values()) == trace.total_bytes

    def test_stage_attribution_matches_span_bytes(self, boss_traces):
        for trace in boss_traces:
            per_stage = stage_byte_totals(trace.traffic)
            for stage in PIPELINE_STAGES:
                assert trace.span(stage).bytes_moved == per_stage[stage]

    def test_memory_span_carries_no_bytes(self, boss_traces):
        # The memory span is the transport for the functional stages'
        # bytes; giving it bytes of its own would double-count.
        for trace in boss_traces:
            assert trace.span(STAGE_MEMORY).bytes_moved == 0

    def test_read_write_split_conserves(self, boss_traces):
        for trace in boss_traces:
            reads = sum(e.bytes for e in trace.traffic
                        if e.direction == "read")
            writes = sum(e.bytes for e in trace.traffic
                         if e.direction == "write")
            assert reads + writes == trace.total_bytes

    def test_pattern_split_conserves(self, boss_traces):
        for trace in boss_traces:
            seq = sum(e.bytes for e in trace.traffic
                      if e.pattern == "sequential")
            rnd = sum(e.bytes for e in trace.traffic if e.pattern == "random")
            assert seq + rnd == trace.total_bytes


class TestAdditivity:
    def test_boss_stage_times_sum_to_latency(self, boss_traces):
        for trace in boss_traces:
            assert sum(s.seconds for s in trace.spans) == pytest.approx(
                trace.latency_seconds, rel=1e-9, abs=1e-15
            )

    def test_iiu_stage_times_sum_to_latency(self, iiu_pairs):
        for _result, trace in iiu_pairs:
            assert sum(s.seconds for s in trace.spans) == pytest.approx(
                trace.latency_seconds, rel=1e-9, abs=1e-15
            )

    def test_spans_are_contiguous(self, boss_traces):
        for trace in boss_traces:
            cursor = 0.0
            for span in trace.spans:
                assert span.start_seconds == pytest.approx(cursor)
                assert span.end_seconds >= span.start_seconds
                cursor = span.end_seconds
            assert cursor == pytest.approx(trace.latency_seconds)

    def test_utilization_shares_sum_to_one(self, boss_traces):
        for trace in boss_traces:
            assert sum(trace.utilization().values()) == pytest.approx(1.0)

    def test_pipelined_latency_never_exceeds_serialized(self, boss_traces):
        # Pipelining overlaps stages; it can only help. The pipelined
        # number additionally charges the per-query dispatch overhead,
        # which the additive stage layout does not include.
        from repro.sim.timing import BossTimingModel

        overhead = BossTimingModel().query_overhead
        for trace in boss_traces:
            assert 0 < trace.pipelined_seconds
            assert (trace.pipelined_seconds
                    <= trace.latency_seconds + overhead + 1e-12)


class TestTraceShape:
    def test_every_stage_has_exactly_one_span(self, boss_traces):
        for trace in boss_traces:
            assert [s.name for s in trace.spans] == list(ALL_STAGES)

    def test_bottleneck_is_a_known_stage(self, boss_traces):
        for trace in boss_traces:
            assert trace.bottleneck in ALL_STAGES
            worst = max(s.seconds for s in trace.spans)
            assert trace.span(trace.bottleneck).seconds == worst

    def test_query_metadata_recorded(self, boss_traces):
        # Expressions are stored in the parser's canonical rendering,
        # so address traces by position in the query list.
        one = boss_traces[QUERIES.index('"t1" AND "t2"')]
        assert one.engine == "BOSS"
        assert one.num_terms == 2
        assert '"t1"' in one.expression and "AND" in one.expression
        assert one.query_type
        assert one.cores_used >= 1
        many = boss_traces[QUERIES.index('"t1" OR "t5" OR "t9" OR "t12"')]
        assert many.num_terms == 4

    def test_query_ids_are_sequential(self, boss_traces):
        assert [t.query_id for t in boss_traces] == list(range(len(QUERIES)))

    def test_to_dict_round_trips_through_json(self, boss_traces):
        for trace in boss_traces:
            record = json.loads(json.dumps(trace.to_dict()))
            assert record["engine"] == "BOSS"
            assert record["bottleneck"] in ALL_STAGES
            assert len(record["spans"]) == len(ALL_STAGES)
            assert record["latency_seconds"] == pytest.approx(
                trace.latency_seconds
            )
            total = sum(s["bytes_moved"] for s in record["spans"])
            assert total == trace.total_bytes


class TestNullObserverParity:
    """The default no-op observer must not change any modeled number."""

    def test_observed_run_matches_unobserved_run(self, index):
        plain = BossAccelerator(index, BossConfig(k=10))
        observed = BossAccelerator(index, BossConfig(k=10))
        for expression in QUERIES:
            a = plain.search(expression)
            with observing(RecordingObserver()):
                b = observed.search(expression)
            assert [(h.doc_id, h.score) for h in a.hits] == [
                (h.doc_id, h.score) for h in b.hits
            ]
            assert a.traffic.total_bytes == b.traffic.total_bytes
            assert a.work == b.work
            assert a.interconnect_bytes == b.interconnect_bytes

    def test_null_observer_is_disabled_and_silent(self, index):
        assert NULL_OBSERVER.enabled is False
        engine = BossAccelerator(index, BossConfig(k=10))
        result = engine.search('"t1" AND "t2"')
        # The null observer records nothing anywhere.
        assert NULL_OBSERVER.on_query_complete(result) is None


class TestRecordingObserverBookkeeping:
    def test_registry_totals_match_traces(self, boss_traces):
        observer = RecordingObserver()
        for trace in boss_traces:
            observer._publish(trace)
        registry = observer.registry
        completed = registry.get("queries.completed")
        assert completed.total() == len(boss_traces)
        scm_bytes = registry.get("scm.bytes")
        assert scm_bytes.total() == sum(t.total_bytes for t in boss_traces)
        latency = registry.get("query.latency_us")
        assert latency.count(engine="BOSS") == len(boss_traces)


def test_trace_type_is_exported():
    from repro import QueryTrace as exported

    assert exported is QueryTrace
