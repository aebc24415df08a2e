"""BOSS: Bandwidth-Optimized Search Accelerator for Storage-Class Memory.

A behavioral and performance-model reproduction of Heo et al., ISCA 2021.

The library has three layers:

* **functional search substrate** — inverted index construction
  (:mod:`repro.index`), integer compression (:mod:`repro.compression`),
  the programmable decompression module (:mod:`repro.decompressor`),
  query parsing and the BM25/WAND/SvS machinery (:mod:`repro.core`);
* **engines** — the BOSS accelerator (:class:`repro.core.BossAccelerator`)
  and the two baselines (:mod:`repro.baselines`): IIU and a Lucene-like
  software engine. All three return identical top-k results and differ
  only in the work/traffic they generate;
* **performance model** — SCM/DRAM device and interconnect models
  (:mod:`repro.scm`), the timing and throughput model (:mod:`repro.sim`)
  and the area/power/energy model (:mod:`repro.hwmodel`).

Quickstart::

    from repro import BossSession, IndexBuilder

    builder = IndexBuilder()
    builder.add_document("storage class memory is the new tier".split())
    builder.add_document("a search accelerator near the memory".split())
    index = builder.build()

    session = BossSession()
    session.init(index)
    result = session.search('"memory" AND "search"', k=10)
    for hit in result.hits:
        print(hit.doc_id, hit.score)
"""

from repro.api import BossSession, MAX_QUERY_TERMS
from repro.clock import WALL_CLOCK, VirtualClock, WallClock
from repro.baselines import IIUAccelerator, IIUConfig, LuceneConfig, LuceneEngine
from repro.core import (
    BossAccelerator,
    BossConfig,
    ScoredDocument,
    SearchResult,
    TopKQueue,
    classify_query,
    parse_query,
)
from repro.errors import (
    CompressionError,
    ConfigurationError,
    CrashError,
    DecompressorProgramError,
    FaultInjectionError,
    InvertedIndexError,
    LeafExecutionError,
    QueryError,
    ReproError,
    SimulationError,
)
from repro.faults import ZERO_FAULTS, FaultConfig, FaultyEngine
from repro.index import (
    BM25Parameters,
    BM25Scorer,
    IndexBuilder,
    InvertedIndex,
    MmapIndexStorage,
    load_index_mmap,
    open_index,
)
from repro.index.binaryio import load_index_binary, save_index_binary
from repro.live import (
    DurableLiveIndexWriter,
    LiveIndexWriter,
    LiveServingTarget,
    LiveStatistics,
    MemSegment,
    MergePolicy,
    MergeScheduler,
    RecoveryReport,
    SegmentedIndex,
    UpdateResult,
    WriteAheadLog,
    recover_live_index,
)
from repro.observability import (
    NULL_OBSERVER,
    MetricsRegistry,
    Observer,
    QueryTrace,
    RecordingObserver,
)
from repro.serving import (
    PoissonArrivals,
    QueryServer,
    ServingConfig,
    ServingReport,
    TraceArrivals,
    zipf_workload,
)
from repro.sim import (
    BossTimingModel,
    IIUTimingModel,
    LuceneTimingModel,
    ThroughputReport,
)
from repro.workloads import QuerySampler, make_corpus

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # sessions & engines
    "BossSession",
    "MAX_QUERY_TERMS",
    "BossAccelerator",
    "BossConfig",
    "IIUAccelerator",
    "IIUConfig",
    "LuceneEngine",
    "LuceneConfig",
    # index
    "IndexBuilder",
    "InvertedIndex",
    "BM25Parameters",
    "BM25Scorer",
    "save_index_binary",
    "load_index_binary",
    "load_index_mmap",
    "open_index",
    "MmapIndexStorage",
    # queries & results
    "parse_query",
    "classify_query",
    "SearchResult",
    "ScoredDocument",
    "TopKQueue",
    # observability
    "Observer",
    "RecordingObserver",
    "NULL_OBSERVER",
    "MetricsRegistry",
    "QueryTrace",
    # performance model
    "BossTimingModel",
    "IIUTimingModel",
    "LuceneTimingModel",
    "ThroughputReport",
    # workloads
    "make_corpus",
    "QuerySampler",
    # live index mutation
    "SegmentedIndex",
    "LiveIndexWriter",
    "LiveServingTarget",
    "LiveStatistics",
    "MemSegment",
    "MergePolicy",
    "MergeScheduler",
    "UpdateResult",
    # durable live index
    "DurableLiveIndexWriter",
    "RecoveryReport",
    "WriteAheadLog",
    "recover_live_index",
    # fault injection
    "FaultConfig",
    "FaultyEngine",
    "ZERO_FAULTS",
    # serving
    "QueryServer",
    "ServingConfig",
    "ServingReport",
    "PoissonArrivals",
    "TraceArrivals",
    "zipf_workload",
    # clocks
    "WallClock",
    "VirtualClock",
    "WALL_CLOCK",
    # errors
    "ReproError",
    "CompressionError",
    "DecompressorProgramError",
    "InvertedIndexError",
    "QueryError",
    "ConfigurationError",
    "SimulationError",
    "FaultInjectionError",
    "CrashError",
    "LeafExecutionError",
]
