"""Timing model: work + traffic -> seconds, and batch throughput.

The model follows the paper's bottleneck reasoning:

* a fully pipelined accelerator core finishes a query in
  ``max(memory service time, slowest module's compute time)``;
* a multi-core device shares its memory node's bandwidth, so batch time
  is ``max(compute-limited time, bandwidth-limited time,
  interconnect-limited time)`` — this is why IIU "hits the maximum
  performance with fewer cores than BOSS" (Section V-B) and why BOSS
  keeps scaling;
* the software baseline (Lucene) is a per-operation CPU cost model that
  is compute-dominated, reproducing its reported insensitivity to the
  memory device (<= 15% DRAM-vs-SCM delta, Figure 16).

All constants live here so calibration is one-file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.result import SearchResult
from repro.errors import ConfigurationError
from repro.scm.device import MemoryDeviceModel, OPTANE_NODE_4CH
from repro.scm.interconnect import CXL_LINK

NS = 1e-9

#: Terms one BOSS core processes natively; a longer query chains cores
#: through their mergers (Section IV-D).
TERMS_PER_CORE = 4


@dataclass(frozen=True)
class ThroughputReport:
    """Batch simulation outcome for one engine configuration."""

    engine: str
    num_queries: int
    num_cores: int
    #: Wall-clock seconds for the whole batch.
    batch_seconds: float
    #: Queries per second.
    throughput_qps: float
    #: Which resource bound the batch: "compute", "memory", "interconnect".
    bottleneck: str
    #: Seconds the batch would take if only this resource existed.
    compute_seconds: float
    memory_seconds: float
    interconnect_seconds: float
    #: Average device bandwidth demand over the batch (bytes/second).
    avg_bandwidth: float


class _TimingModel:
    """Every engine's model: one query is bound by its compute, the
    memory node's service time or the host link, whichever is longest;
    a batch spreads compute over ``num_cores`` and shares the rest.

    A model supplies ``compute_seconds`` (one query on one core) and
    ``cores_used`` (how many cores one query occupies).
    """

    def __init__(self, device: MemoryDeviceModel = OPTANE_NODE_4CH,
                 num_cores: int = 8) -> None:
        if num_cores <= 0:
            raise ConfigurationError("need at least one core")
        self.device = device
        self.num_cores = num_cores

    # -- per query ------------------------------------------------------

    def compute_seconds(self, result: SearchResult) -> float:
        raise NotImplementedError

    def cores_used(self, result: SearchResult) -> int:
        raise NotImplementedError

    def memory_seconds(self, result: SearchResult) -> float:
        """Memory-node service time for one query's traffic."""
        return self.device.service_time(result.traffic)

    def query_seconds(self, result: SearchResult) -> float:
        """Latency of one query on an otherwise idle device."""
        return max(
            self.compute_seconds(result),
            self.memory_seconds(result),
            CXL_LINK.transfer_time(result.interconnect_bytes),
        )

    # -- batch ----------------------------------------------------------

    def contended_seconds(self, results: Sequence[SearchResult]
                          ) -> List[float]:
        """Each query's latency when the batch runs together: its
        :meth:`query_seconds`, slowed by one batch-wide factor when the
        batch's memory demand exceeds its core-weighted compute span
        (never sped up)."""
        service = [self.query_seconds(r) for r in results]
        compute_span = sum(
            s * min(self.num_cores, self.cores_used(r))
            for s, r in zip(service, results)
        ) / self.num_cores
        memory = sum(self.memory_seconds(r) for r in results)
        factor = (max(1.0, memory / compute_span)
                  if compute_span > 0 else 1.0)
        return [s * factor for s in service]

    def batch(self, results: Sequence[SearchResult],
              num_cores: Optional[int] = None) -> ThroughputReport:
        """Throughput of a query batch on ``num_cores`` cores.

        Queries run concurrently across cores; the memory node and the
        host link are shared. Each bound is computed independently and
        the largest wins.
        """
        cores = self.num_cores if num_cores is None else num_cores
        if cores <= 0:
            raise ConfigurationError("need at least one core")
        compute_core_seconds = sum(
            self.compute_seconds(r) * self.cores_used(r) for r in results
        )
        compute_seconds = compute_core_seconds / cores
        memory_seconds = sum(self.memory_seconds(r) for r in results)
        interconnect_seconds = sum(
            CXL_LINK.transfer_time(r.interconnect_bytes)
            for r in results
        )
        return _make_report(
            self.name, len(results), cores, compute_seconds,
            memory_seconds, interconnect_seconds,
            sum(r.traffic.total_bytes for r in results),
        )


class _AcceleratorTimingModel(_TimingModel):
    """Shared pipelined-accelerator math for BOSS and IIU."""

    name = "accelerator"
    clock_hz = 1.0e9
    #: Values each decompression module emits per cycle. Bit-serial
    #: extraction plus exception/delta stages sustain a bit under one
    #: value per cycle on average across the schemes.
    decode_values_per_cycle = 0.8
    #: Fixed per-query control overhead (command queue, scheduler, API).
    query_overhead = 2e-6

    def compute_seconds(self, result: SearchResult) -> float:
        """Slowest pipeline module's busy time for one query."""
        cycles = self._module_cycles(result)
        return max(cycles) / self.clock_hz + self.query_overhead

    def cores_used(self, result: SearchResult) -> int:
        return max(1, math.ceil(len(result.query.terms())
                                / TERMS_PER_CORE))

    def _module_cycles(self, result: SearchResult) -> List[float]:
        raise NotImplementedError


class BossTimingModel(_AcceleratorTimingModel):
    """BOSS core pipeline (Figure 4(b), Table I configuration).

    BOSS dedicates one decompression lane per posting-list stream, so a
    query with fewer terms than lanes cannot use the spare lanes
    (Section V-B: "BOSS only uses the same number of decompression and
    scoring units as the number of terms" — the lack of intra-query
    parallelism that lets IIU win Q1 against BOSS-exhaustive).
    """

    name = "BOSS"
    decompression_modules = 4
    scoring_modules = 4
    #: Pipeline stage labels, aligned with ``_module_cycles`` order.
    module_names = ("block-fetch", "decompression", "merger", "scoring",
                    "top-k")

    def _module_cycles(self, result: SearchResult) -> List[float]:
        work = result.work
        num_terms = len(result.query.terms())
        active_lanes = min(max(1, num_terms), self.decompression_modules)
        active_scorers = min(max(1, num_terms), self.scoring_modules)
        return [
            # Block fetch module: one metadata record per cycle.
            work.metadata_inspected,
            # Decompression: docID + tf values, one value/cycle/lane.
            2.0 * work.postings_decoded
            / (active_lanes * self.decode_values_per_cycle),
            # Set-operation mergers: one compare/advance per cycle.
            work.merge_ops,
            # Scoring: one document per cycle per active module.
            work.docs_evaluated / active_scorers,
            # Top-k shift-register: one insert per cycle.
            work.topk_inserts,
        ]


class IIUTimingModel(_AcceleratorTimingModel):
    """IIU model (Heo et al. [34]), same module budget as BOSS.

    IIU parallelizes a single stream across all its decompression and
    scoring units (intra-query parallelism), but pays for binary-search
    probes — each probe is a dependent random access charged at the
    device's read latency, partially overlapped four ways by the
    independent lanes.
    """

    name = "IIU"
    decompression_modules = 4
    scoring_modules = 4
    #: Pipeline stage labels, aligned with ``_module_cycles`` order.
    module_names = ("block-fetch", "decompression", "merger", "scoring",
                    "top-k")
    #: Binary-search probes of ONE membership test are dependent (depth
    #: ~log2 blocks), but tests for different candidates pipeline; the
    #: residual serialization is charged as a small per-probe stall on
    #: top of the random-read bandwidth already in the traffic counter.
    probe_stall_seconds = 12e-9

    def _module_cycles(self, result: SearchResult) -> List[float]:
        work = result.work
        return [
            work.metadata_inspected,
            2.0 * work.postings_decoded / self.decompression_modules,
            work.merge_ops,
            work.docs_evaluated / self.scoring_modules,
            # Top-k runs on the host and is ignored per the paper's
            # methodology ("For IIU, we ignore the top-k selection time").
            0.0,
        ]

    def compute_seconds(self, result: SearchResult) -> float:
        base = super().compute_seconds(result)
        return base + result.work.probe_reads * self.probe_stall_seconds


# Per-operation CPU costs of the software baseline, chosen to land a
# production-grade engine's single-core posting throughput (tens of
# millions of postings/second) so that the BOSS-vs-Lucene speedups
# match the paper's shape. ROADMAP item 3 fits them to measured
# per-stage costs.
LUCENE_DECODE_NS_PER_POSTING = 12.0
LUCENE_MERGE_NS_PER_OP = 8.0
LUCENE_SCORE_NS_PER_DOC = 35.0
LUCENE_METADATA_NS_PER_BLOCK = 20.0
LUCENE_TOPK_NS_PER_INSERT = 25.0
LUCENE_QUERY_OVERHEAD_US = 12.0


class LuceneTimingModel(_TimingModel):
    """Software search on host CPU cores reading the SCM pool.

    Each query runs on one thread; the batch spreads over ``num_cores``
    threads. All posting traffic crosses the shared interconnect (the
    host has no near-data placement), but the model is compute-dominated,
    matching the paper's observation that Lucene gains at most ~15% from
    DRAM.
    """

    name = "Lucene"

    def compute_seconds(self, result: SearchResult) -> float:
        """Single-thread CPU time for one query's work."""
        work = result.work
        return (
            work.postings_decoded * LUCENE_DECODE_NS_PER_POSTING * NS
            + work.merge_ops * LUCENE_MERGE_NS_PER_OP * NS
            + work.docs_evaluated * LUCENE_SCORE_NS_PER_DOC * NS
            + work.metadata_inspected * LUCENE_METADATA_NS_PER_BLOCK * NS
            + work.topk_inserts * LUCENE_TOPK_NS_PER_INSERT * NS
            + LUCENE_QUERY_OVERHEAD_US * 1e-6
        )

    def cores_used(self, result: SearchResult) -> int:
        """A software query runs on one thread regardless of terms."""
        return 1


def _make_report(name: str, num_queries: int, cores: int,
                 compute_seconds: float, memory_seconds: float,
                 interconnect_seconds: float,
                 total_bytes: int) -> ThroughputReport:
    batch_seconds = max(compute_seconds, memory_seconds,
                        interconnect_seconds)
    if batch_seconds <= 0:
        raise ConfigurationError("batch produced zero simulated time")
    bottleneck = "compute"
    if batch_seconds == memory_seconds:
        bottleneck = "memory"
    if batch_seconds == interconnect_seconds:
        bottleneck = "interconnect"
    return ThroughputReport(
        engine=name,
        num_queries=num_queries,
        num_cores=cores,
        batch_seconds=batch_seconds,
        throughput_qps=num_queries / batch_seconds,
        bottleneck=bottleneck,
        compute_seconds=compute_seconds,
        memory_seconds=memory_seconds,
        interconnect_seconds=interconnect_seconds,
        avg_bandwidth=total_bytes / batch_seconds,
    )
