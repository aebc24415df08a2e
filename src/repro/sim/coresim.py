"""Discrete-event simulation of one BOSS core's block pipeline.

The analytic timing model (:mod:`repro.sim.timing`) treats each pipeline
stage as independently busy and takes the max — exact for a perfectly
pipelined core with infinite inter-stage buffers. This module checks
that idealization with an event-driven model of Figure 4(b)'s pipeline
at *block* granularity:

    SCM channel -> per-term decompression lane -> merge -> score -> top-k

Each fetched block is an event-carrying task: it occupies the memory
channel for ``bytes / bandwidth``, then its term's decompression lane
for ``2 * postings / rate`` cycles, then feeds the shared downstream
stages. Finite lane buffers cause back-pressure: a lane stalls when the
merger falls behind, which is the effect the analytic model cannot see.

Inputs come from a real execution: the engine's ``fetch_log`` (block
sizes) plus the work counters (downstream op counts). Tests assert the
event-driven time is bounded below by the analytic bound and within a
small factor above it — evidence the max-of-stages model is a faithful
summary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.result import SearchResult
from repro.scm.device import MemoryDeviceModel, OPTANE_NODE_4CH
from repro.sim.timing import BossTimingModel

#: One fetched block: (term, block_index, payload_bytes). Records with
#: extra trailing fields (the engine's pattern-annotated fetch log) are
#: accepted; only the first three fields are read here.
FetchRecord = Tuple[str, int, int]

#: Decoded blocks a lane may hold before stalling (the paper's on-chip
#: buffers hold roughly one block per stream plus intermediates, Section
#: IV-C "On-chip Buffers").
LANE_BUFFER_BLOCKS = 2


@dataclass(frozen=True)
class CoreSimReport:
    """Event-driven outcome for one query on one core."""

    #: Simulated wall-clock seconds for the query.
    total_seconds: float
    #: Busy seconds per resource.
    busy_seconds: Dict[str, float]
    #: Blocks processed.
    blocks: int
    #: The analytic lower bound (max of stage busy times).
    analytic_bound_seconds: float

    @property
    def pipeline_efficiency(self) -> float:
        """Analytic bound over simulated time (1.0 = perfectly pipelined)."""
        if self.total_seconds <= 0:
            return 1.0
        return min(1.0, self.analytic_bound_seconds / self.total_seconds)


class BossCoreSimulator:
    """Event-driven single-core pipeline model.

    The clock, the decode rate and the lane count are
    :class:`~repro.sim.timing.BossTimingModel`'s (Table I), so the two
    models are comparable; ``device`` serves the block fetches
    (sequential reads).
    """

    clock_hz = BossTimingModel.clock_hz
    decode_values_per_cycle = BossTimingModel.decode_values_per_cycle
    num_lanes = BossTimingModel.decompression_modules

    def __init__(self, device: MemoryDeviceModel = OPTANE_NODE_4CH) -> None:
        self.device = device

    def simulate(self, result: SearchResult,
                 fetch_log: Sequence[FetchRecord]) -> CoreSimReport:
        """Replay one query's fetched blocks through the pipeline."""
        if not fetch_log:
            return CoreSimReport(
                total_seconds=0.0, busy_seconds={}, blocks=0,
                analytic_bound_seconds=0.0,
            )

        # Assign each query term a decompression lane (round-robin past
        # num_lanes, which only matters for >4-term queries).
        terms = list(dict.fromkeys(record[0] for record in fetch_log))
        lane_of = {
            term: i % self.num_lanes for i, term in enumerate(terms)
        }

        total_postings = max(1, result.work.postings_decoded)
        downstream_ops = (
            result.work.merge_ops
            + result.work.docs_evaluated
            + result.work.topk_inserts
        )
        # Downstream cost charged per posting so it distributes over the
        # block stream (merge + score + top-k behind the decoders).
        downstream_per_posting = downstream_ops / total_postings

        # Per-block service times.
        blocks: List[Tuple[int, float, float, float]] = []
        for record in fetch_log:
            term, _index, size = record[0], record[1], record[2]
            postings = size_to_postings(size, result)
            fetch_s = size / self.device.seq_read_bw
            decode_s = (
                2.0 * postings
                / (self.decode_values_per_cycle * self.clock_hz)
            )
            downstream_s = (
                postings * downstream_per_posting / self.clock_hz
            )
            blocks.append((lane_of[term], fetch_s, decode_s, downstream_s))

        # Event-driven replay: one memory channel, per-lane decoder with
        # a finite output buffer, one downstream (merge/score/topk) unit.
        channel_free = 0.0
        lane_free = [0.0] * self.num_lanes
        lane_busy = [0.0] * self.num_lanes
        # Completion times of decoded-but-unconsumed blocks per lane.
        lane_buffered: List[List[float]] = [[] for _ in range(self.num_lanes)]
        downstream_free = 0.0
        busy = {"memory": 0.0, "decode": 0.0, "downstream": 0.0}
        finish = 0.0

        for lane, fetch_s, decode_s, downstream_s in blocks:
            # Memory channel is a single sequential-stream server.
            fetch_done = channel_free + fetch_s
            channel_free = fetch_done
            busy["memory"] += fetch_s

            # Back-pressure: the lane cannot accept a new block while its
            # buffer is full of blocks the downstream has not drained.
            buffered = lane_buffered[lane]
            if len(buffered) >= LANE_BUFFER_BLOCKS:
                stall_until = buffered[0]
                buffered.pop(0)
            else:
                stall_until = 0.0
            decode_start = max(fetch_done, lane_free[lane], stall_until)
            decode_done = decode_start + decode_s
            lane_free[lane] = decode_done
            busy["decode"] += decode_s
            lane_busy[lane] += decode_s

            downstream_start = max(decode_done, downstream_free)
            downstream_done = downstream_start + downstream_s
            downstream_free = downstream_done
            busy["downstream"] += downstream_s
            buffered.append(downstream_done)
            finish = max(finish, downstream_done)

        # The analytic lower bound uses each *serial* resource's busy
        # time: the one memory channel, the busiest single decode lane,
        # and the shared downstream unit.
        analytic = max(busy["memory"], max(lane_busy), busy["downstream"])
        return CoreSimReport(
            total_seconds=finish,
            busy_seconds=busy,
            blocks=len(blocks),
            analytic_bound_seconds=analytic,
        )


def size_to_postings(size: int, result: SearchResult) -> int:
    """Estimate a block's posting count from its payload share.

    The fetch log records bytes; postings per block vary with the
    scheme. Distributing the query's total decoded postings by byte
    share keeps per-block work consistent with the counters.
    """
    from repro.scm.traffic import AccessClass

    list_bytes = max(1, result.traffic.bytes_for(AccessClass.LD_LIST))
    return max(1, round(result.work.postings_decoded * size / list_bytes))
