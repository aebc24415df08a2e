"""ANN query execution with bandwidth-class traffic accounting.

A probe of the IVF index is two memory phases, each charged in the same
:class:`~repro.scm.traffic.TrafficCounter` currency as the lexical
engines:

* **centroid scan** — the whole DRAM-resident centroid table is read
  once per query, charged ``LD Score / sequential`` and timed at the
  DRAM device (this is the per-document-metadata analogue);
* **cluster scans** — each probed cluster's packed region is read off
  the SCM pool. The first ``min(access_granule, region)`` bytes of a
  probe that *jumps* (the previous scanned region is not physically
  adjacent) are charged ``LD List / random`` — the hop the paper's
  Table I asymmetry punishes — and the remainder streams at ``LD List /
  sequential``. Probing clusters that happen to be neighbors in the
  packed layout coalesces into one run, hop-free.

Every query asserts the **bytes-conservation identity**::

    centroid_bytes + cluster_seq_bytes + cluster_hop_bytes == demand

where demand is computed independently from the layout (table size +
probed region sizes). A mismatch raises ``SimulationError`` — the
accounting cannot silently drift from the data actually touched.

The **differential oracle**: :meth:`VectorEngine.brute_force` scores
every cluster with the same reconstructed-matrix kernel ``search``
uses, so ``search(nprobe=num_clusters)`` is bit-identical to it for
every codec; recall@k is measured against the codec-independent raw
embedding ground truth (:meth:`CorpusEmbeddings.exact_topk`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.result import ScoredDocument
from repro.errors import ConfigurationError, SimulationError
from repro.observability.observer import current_observer
from repro.observability.registry import LATENCY_BUCKETS_US
from repro.scm.device import DDR4_4CH, OPTANE_NODE_4CH, MemoryDeviceModel
from repro.scm.traffic import AccessClass, AccessPattern, TrafficCounter
from repro.vector.embeddings import CorpusEmbeddings
from repro.vector.ivf import IVFIndex


@dataclass
class VectorSearchResult:
    """Outcome of one ANN query, with its full traffic ledger."""

    #: The query's term list (or ``<vector>`` for raw-vector queries).
    expression: str
    hits: List[ScoredDocument]
    traffic: TrafficCounter
    nprobe: int
    clusters_probed: int
    vectors_scanned: int
    #: Conservation identity components (bytes).
    centroid_bytes: int
    cluster_seq_bytes: int
    cluster_hop_bytes: int
    demand_bytes: int
    #: Modeled device seconds: centroid read at the DRAM device +
    #: cluster scan at the pool device.
    modeled_seconds: float = 0.0
    #: Clusters whose probe coalesced with the previous scanned region
    #: (physically adjacent in the packed layout — no random hop).
    coalesced_probes: int = 0

    def publish_metrics(self, registry) -> None:
        """The traffic components satisfy the bytes-conservation
        identity (the engine raises before emitting otherwise)."""
        registry.counter(
            "vector.queries", "ANN queries answered"
        ).inc()
        registry.counter(
            "vector.demand_bytes", "layout bytes demanded by probes"
        ).inc(self.demand_bytes)
        moved = registry.counter(
            "vector.bytes", "probe bytes by layout component"
        )
        moved.inc(self.centroid_bytes, component="centroid")
        moved.inc(self.cluster_seq_bytes, component="cluster_seq")
        moved.inc(self.cluster_hop_bytes, component="cluster_hop")
        registry.counter(
            "vector.clusters_probed", "clusters scanned across queries"
        ).inc(self.clusters_probed)
        registry.counter(
            "vector.vectors_scanned", "vectors scored across queries"
        ).inc(self.vectors_scanned)
        registry.histogram(
            "vector.latency_us", LATENCY_BUCKETS_US,
            "modeled ANN query latency (us)",
        ).observe(self.modeled_seconds * 1e6)


class VectorEngine:
    """IVF search over one device-resident vector index.

    Parameters
    ----------
    ivf:
        The clustered index (:func:`repro.vector.ivf.build_ivf`).
    embeddings:
        The embedding model; supplies query vectors and the recall
        ground truth.
    device:
        Pool device holding the packed cluster regions (default: the
        Table I 4-channel Optane node). The centroid table is read from
        DDR4: centroids are DRAM-resident by design.
    nprobe:
        Default clusters probed per query (default: ``max(1,
        num_clusters // 4)``, which clears the pinned recall floor on
        the preset corpora).
    """

    def __init__(self, ivf: IVFIndex, embeddings: CorpusEmbeddings,
                 device: MemoryDeviceModel = OPTANE_NODE_4CH,
                 nprobe: Optional[int] = None) -> None:
        if ivf.num_docs != embeddings.num_docs:
            raise ConfigurationError(
                f"index holds {ivf.num_docs} vectors, embeddings "
                f"{embeddings.num_docs}"
            )
        if nprobe is None:
            nprobe = max(1, ivf.num_clusters // 4)
        if not 1 <= nprobe <= ivf.num_clusters:
            raise ConfigurationError(
                f"nprobe must be in [1, {ivf.num_clusters}], got {nprobe}"
            )
        self.ivf = ivf
        self.embeddings = embeddings
        self.device = device
        self.nprobe = nprobe

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------

    def query_vector(self, query: Union[str, Sequence[str], np.ndarray]
                     ) -> np.ndarray:
        """Resolve a query (term list, expression string, or raw
        vector) to a unit float32 vector."""
        if isinstance(query, np.ndarray):
            vec = query.astype(np.float32)
            norm = float(np.linalg.norm(vec))
            if norm == 0:
                raise ConfigurationError("query vector has zero norm")
            return vec / norm
        terms = self._terms_of(query)
        return self.embeddings.query_vector(terms)

    def search(self, query: Union[str, Sequence[str], np.ndarray],
               k: int = 10,
               nprobe: Optional[int] = None) -> VectorSearchResult:
        """Probe the ``nprobe`` nearest clusters, return cosine top-k."""
        if k <= 0:
            raise ConfigurationError("k must be positive")
        nprobe = self.nprobe if nprobe is None else nprobe
        if not 1 <= nprobe <= self.ivf.num_clusters:
            raise ConfigurationError(
                f"nprobe must be in [1, {self.ivf.num_clusters}], "
                f"got {nprobe}"
            )
        q = self.query_vector(query)
        # Centroid scan: nearest-nprobe selection, ties to lower id.
        sims = self.ivf.centroids @ q
        order = np.lexsort((np.arange(len(sims)), -sims))
        probe_order = [int(c) for c in order[:nprobe]]
        return self._scan(self._expression_of(query), q, probe_order, k)

    def brute_force(self, query: Union[str, Sequence[str], np.ndarray],
                    k: int = 10) -> List[ScoredDocument]:
        """Differential oracle: every cluster, same kernel, no traffic.

        Scores are computed per cluster on the *reconstructed* vectors —
        identical arithmetic to :meth:`search` — so an all-clusters
        probe must reproduce this list bit-for-bit.
        """
        if k <= 0:
            raise ConfigurationError("k must be positive")
        q = self.query_vector(query)
        return self._top_k(
            self._score_clusters(q, range(self.ivf.num_clusters)), k
        )

    def recall_at_k(self, queries: Sequence, k: int = 10) -> float:
        """Mean recall@k of IVF search at this engine's ``nprobe`` vs the
        raw-embedding exact top-k."""
        if not queries:
            raise ConfigurationError("recall needs at least one query")
        total = 0.0
        for query in queries:
            q = self.query_vector(query)
            truth = set(self.embeddings.exact_topk(q, k))
            got = {
                hit.doc_id
                for hit in self.search(query, k=k).hits
            }
            total += len(truth & got) / float(k)
        return total / len(queries)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _scan(self, expression: str, q: np.ndarray,
              probe_order: List[int], k: int) -> VectorSearchResult:
        ivf = self.ivf
        traffic = TrafficCounter()
        granule = self.device.access_granule

        # Phase 1: centroid table, sequential, DRAM-resident.
        centroid_bytes = ivf.centroid_bytes
        traffic.record(AccessClass.LD_SCORE, AccessPattern.SEQUENTIAL,
                       centroid_bytes, accesses=ivf.num_clusters)

        # Phase 2: probed cluster regions on the pool device.
        seq_bytes = 0
        hop_bytes = 0
        coalesced = 0
        vectors_scanned = 0
        demand = centroid_bytes
        prev_end: Optional[int] = None
        for cid in probe_order:
            cluster = ivf.clusters[cid]
            demand += cluster.nbytes
            if cluster.nbytes:
                if prev_end is not None and cluster.base == prev_end:
                    # Physically adjacent to the region just scanned:
                    # the stream continues, no seek.
                    traffic.record(AccessClass.LD_LIST,
                                   AccessPattern.SEQUENTIAL,
                                   cluster.nbytes)
                    seq_bytes += cluster.nbytes
                    coalesced += 1
                else:
                    hop = min(granule, cluster.nbytes)
                    traffic.record(AccessClass.LD_LIST,
                                   AccessPattern.RANDOM, hop)
                    hop_bytes += hop
                    rest = cluster.nbytes - hop
                    if rest:
                        traffic.record(AccessClass.LD_LIST,
                                       AccessPattern.SEQUENTIAL, rest)
                        seq_bytes += rest
                prev_end = cluster.base + cluster.nbytes
            vectors_scanned += cluster.num_vectors

        self._check_conservation(centroid_bytes, seq_bytes, hop_bytes,
                                 demand)
        seconds = (
            DDR4_4CH.read_time(centroid_bytes, AccessPattern.SEQUENTIAL)
            + self.device.read_time(seq_bytes, AccessPattern.SEQUENTIAL)
            + self.device.read_time(hop_bytes, AccessPattern.RANDOM)
        )
        result = VectorSearchResult(
            expression=expression,
            hits=self._top_k(self._score_clusters(q, probe_order), k),
            traffic=traffic,
            nprobe=len(probe_order),
            clusters_probed=len(probe_order),
            vectors_scanned=vectors_scanned,
            centroid_bytes=centroid_bytes,
            cluster_seq_bytes=seq_bytes,
            cluster_hop_bytes=hop_bytes,
            demand_bytes=demand,
            modeled_seconds=seconds,
            coalesced_probes=coalesced,
        )
        current_observer().emit(result)
        return result

    def _score_clusters(self, q: np.ndarray, cluster_ids
                        ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """The shared scoring kernel: per-cluster reconstructed matrix
        times the query — used verbatim by search and the oracle.
        Returns one ``(doc_ids, scores)`` column pair per non-empty
        cluster, in ``cluster_ids`` order."""
        out = []
        for cid in cluster_ids:
            cluster = self.ivf.clusters[cid]
            if cluster.num_vectors:
                out.append((cluster.doc_ids, self.ivf.reconstruct(cid) @ q))
        return out

    @staticmethod
    def _top_k(columns: List[Tuple[np.ndarray, np.ndarray]],
               k: int) -> List[ScoredDocument]:
        """Best ``k`` of the scanned columns by ``(-score, doc_id)``;
        only those become :class:`ScoredDocument` objects."""
        if not columns:
            return []
        doc_ids = np.concatenate([ids for ids, _ in columns])
        scores = np.concatenate([scores for _, scores in columns])
        best = np.lexsort((doc_ids, -scores))[:k]
        return [
            ScoredDocument(doc_id, score)
            for doc_id, score in zip(doc_ids[best].tolist(),
                                     scores[best].tolist())
        ]

    @staticmethod
    def _check_conservation(centroid_bytes: int, seq_bytes: int,
                            hop_bytes: int, demand: int) -> None:
        """``centroid + cluster scans == demand`` — raise on drift."""
        moved = centroid_bytes + seq_bytes + hop_bytes
        if moved != demand:
            raise SimulationError(
                f"vector traffic conservation violated: centroid "
                f"{centroid_bytes} + seq {seq_bytes} + hop {hop_bytes} "
                f"= {moved} != demand {demand}"
            )

    @staticmethod
    def _terms_of(query: Union[str, Sequence[str]]) -> List[str]:
        if isinstance(query, str):
            from repro.core.query import parse_query

            return list(dict.fromkeys(parse_query(query).terms()))
        return list(dict.fromkeys(query))

    @staticmethod
    def _expression_of(query: Union[str, Sequence[str], np.ndarray]) -> str:
        if isinstance(query, np.ndarray):
            return "<vector>"
        if isinstance(query, str):
            return query
        return " ".join(query)
