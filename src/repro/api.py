"""Offloading API: the paper's ``init()`` / ``search()`` interface.

Section IV-D defines two intrinsics a host application uses to drive
BOSS::

    void init(file indexFile, file configFile)
    val search(string qExpression, val compType[16], size_t nTerm,
               addr listAddr[16], addr resultAddr, val resultSize)

:class:`BossSession` is the Pythonic embodiment: ``init`` loads an index
file into the (simulated) SCM pool, installs the address mapping in the
MAI, and registers the decompression-module configuration programs;
``search`` parses the expression, resolves each term's compression
scheme and list address (the ``compType``/``listAddr`` arrays), bounds
the term count to the 16-term hardware limit, and executes on the
accelerator model.
"""

from __future__ import annotations

from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.core.engine import RESULT_ENTRY_BYTES, BossAccelerator, BossConfig
from repro.core.mai import MemoryAccessInterface
from repro.core.query import QueryNode, parse_query
from repro.core.result import SearchResult, best_hits
from repro.decompressor.configs import BUILTIN_PROGRAMS
from repro.decompressor.program import DecompressorProgram, parse_program
from repro.errors import ConfigurationError, QueryError
from repro.index.index import InvertedIndex
from repro.index.mmapio import open_index
from repro.observability.observer import (
    NULL_OBSERVER,
    Observer,
    current_observer,
    observing,
)
from repro.sim.timing import TERMS_PER_CORE

#: Hardware limit: four chained BOSS cores of 4-way mergers (Section IV-D).
MAX_QUERY_TERMS = 16

#: Distinct expressions a session keeps parsed. A query log repeats its
#: popular expressions; a session that has seen more than this many
#: starts its memo over.
PARSE_MEMO_ENTRIES = 1024


class BossSession:
    """A host <-> BOSS communication session over one memory node."""

    def __init__(self, config: Optional[BossConfig] = None,
                 observer: Observer = NULL_OBSERVER) -> None:
        self._config = BossConfig() if config is None else config
        self._observer = observer
        self._index: Optional[InvertedIndex] = None
        self._accelerator: Optional[BossAccelerator] = None
        self._programs: Dict[str, DecompressorProgram] = {}
        self._mapped_bytes = 0
        self._vector_engine = None
        self._hybrid_cache: Dict[tuple, object] = {}
        #: Expression -> parsed tree (the trees are immutable).
        self._parsed: Dict[str, QueryNode] = {}
        self.mai = MemoryAccessInterface()

    @property
    def observer(self) -> Observer:
        """The observer this session's calls report to."""
        return self._observer

    def _observing(self):
        """Its observer's scope, or the caller's if it has none."""
        if self._observer.enabled:
            return observing(self._observer)
        return nullcontext()

    # ------------------------------------------------------------------
    # init()
    # ------------------------------------------------------------------

    def init(self, index: Union[InvertedIndex, str, Path],
             config_file: Union[str, Path, None] = None) -> None:
        """Load the index into the pool and configure the device.

        ``index`` is an index file path (the paper's ``indexFile``) or an
        already-built :class:`InvertedIndex`. A ``.bossx`` path is served
        zero-copy via mmap; to hold it another way, pass
        :func:`repro.index.mmapio.open_index`'s result instead.
        ``config_file`` optionally adds custom decompression programs
        (the paper's ``configFile``); the built-in programs for the five
        paper schemes are always registered.
        """
        if isinstance(index, (str, Path)):
            index = open_index(index)
        from repro.live.segments import SegmentedIndex

        self._index = index
        if isinstance(index, SegmentedIndex):
            # A live index is its own execution engine: it owns one
            # accelerator per sealed segment and merges their top-k.
            self._accelerator = index
        else:
            self._accelerator = BossAccelerator(index, self._config)
        # A new index invalidates any vector lane built over the old one.
        self._vector_engine = None
        self._hybrid_cache = {}
        self._programs = dict(BUILTIN_PROGRAMS)
        if config_file is not None:
            text = Path(config_file).read_text()
            program = parse_program(text, name=str(config_file))
            self._programs[program.name] = program
        # Install the physical mapping of the index region in the MAI:
        # identity-mapped huge pages over the allocated span.
        self._mapped_bytes = 0
        self._ensure_mapped()

    @property
    def initialized(self) -> bool:
        return self._accelerator is not None

    @property
    def index(self) -> InvertedIndex:
        self._require_init()
        return self._index

    @property
    def accelerator(self) -> BossAccelerator:
        self._require_init()
        return self._accelerator

    # ------------------------------------------------------------------
    # search()
    # ------------------------------------------------------------------

    def search(self, q_expression: str, k: Optional[int] = None,
               result_size: Optional[int] = None) -> SearchResult:
        """Offload one query.

        Mirrors the paper's argument checks: the expression is parsed,
        ``nTerm`` is bounded by the 16-term hardware limit, and each
        term's ``compType``/``listAddr`` is resolved from the index. A
        ``result_size`` smaller than the top-k output raises, modeling an
        undersized ``resultAddr`` buffer.
        """
        self._require_init()
        node = self._parse(q_expression)
        effective_k = self._config.k if k is None else k
        if (result_size is not None
                and result_size < RESULT_ENTRY_BYTES * effective_k):
            raise ConfigurationError(
                f"result buffer of {result_size} B cannot hold top-"
                f"{effective_k} (needs {RESULT_ENTRY_BYTES * effective_k} B)"
            )
        with self._observing():
            if not self._check_arguments(node):
                return self._search_oversized(node, effective_k)
            return self._accelerator.search(node, k=k)

    def _check_arguments(self, node) -> bool:
        """The offload argument checks :meth:`search` runs per query.

        False when ``nTerm`` exceeds the 16-term hardware limit (the
        query goes to the host-split path instead). Otherwise resolves
        ``compType``/``listAddr`` for every term and raises unless the
        device has a decompression program for each scheme.
        """
        terms = node.terms()
        if len(terms) > MAX_QUERY_TERMS:
            return False
        for comp_type in self.comp_types(terms):
            if comp_type not in self._programs:
                raise ConfigurationError(
                    f"no decompression program registered for {comp_type!r}"
                )
        return True

    def search_batch(self, q_expressions: List[str]):
        """Offload a batch of queries through the batch driver (one
        worker, the session's ``k``).

        Each expression receives the same argument checks as
        :meth:`search` (term limit, registered decompression programs)
        *before* any query executes — a malformed batch fails fast.
        Returns a :class:`repro.batch.BatchResult` with per-query
        :class:`SearchResult` objects in input order plus wall-clock
        throughput statistics.
        """
        self._require_init()
        from repro.batch import run_query_batch

        for q_expression in q_expressions:
            self._check_arguments(self._parse(q_expression))
        return run_query_batch(self, q_expressions)

    def _parse(self, q_expression: str) -> QueryNode:
        """``parse_query``, memoized per session: a malformed expression
        is never kept, so it raises every time."""
        parsed = self._parsed
        node = parsed.get(q_expression)
        if node is None:
            node = parse_query(q_expression)
            if len(parsed) >= PARSE_MEMO_ENTRIES:
                parsed.clear()
            parsed[q_expression] = node
        return node

    # ------------------------------------------------------------------
    # Vector / hybrid lane
    # ------------------------------------------------------------------

    def init_vectors(self, codec: str = "fp32"):
        """Build the ANN lane over the initialized index.

        Embeds the corpus deterministically
        (:func:`repro.vector.embeddings.embed_index`), clusters it into
        an IVF layout of ``codec`` vectors
        (:func:`repro.vector.ivf.build_ivf`'s default sizing), and
        attaches a :class:`~repro.vector.engine.VectorEngine` on the
        Table I SCM node, at its default ``nprobe``. Returns the
        engine.
        """
        self._require_init()
        from repro.vector.embeddings import embed_index
        from repro.vector.engine import VectorEngine
        from repro.vector.ivf import build_ivf

        embeddings = embed_index(self._index)
        self._vector_engine = VectorEngine(
            build_ivf(embeddings, codec=codec), embeddings)
        self._hybrid_cache = {}
        return self._vector_engine

    @property
    def vector_engine(self):
        """The attached ANN lane (raises until :meth:`init_vectors`)."""
        if self._vector_engine is None:
            raise ConfigurationError(
                "vector lane not initialized; call init_vectors()"
            )
        return self._vector_engine

    def vector_search(self, q_expression):
        """ANN top-10 over the attached vector lane."""
        with self._observing():
            return self.vector_engine.search(q_expression)

    def hybrid(self, mode: str = "rerank", first_stage_k: int = 100):
        """A (cached) :class:`~repro.vector.hybrid.HybridSearch` over
        this session's accelerator and vector lane — also the target to
        hand to :func:`repro.batch.run_query_batch` or the serving
        layer for batched/served hybrid traffic."""
        key = (mode, first_stage_k)
        cached = self._hybrid_cache.get(key)
        if cached is None:
            from repro.vector.hybrid import HybridSearch

            cached = HybridSearch(
                self.accelerator, self.vector_engine, mode=mode,
                first_stage_k=first_stage_k,
            )
            self._hybrid_cache[key] = cached
        return cached

    def search_hybrid(self, q_expression, k: int = 10,
                      mode: str = "rerank", first_stage_k: int = 100):
        """One hybrid query (BM25 -> vector rerank, or RRF fusion)."""
        hybrid = self.hybrid(mode=mode, first_stage_k=first_stage_k)
        with self._observing():
            return hybrid.search(q_expression, k=k)

    def _search_oversized(self, node, effective_k: int) -> SearchResult:
        """Host-split execution for queries beyond 16 terms.

        The paper's Section IV-D fallback: "The host first divides the
        query into several subqueries ... BOSS then processes each
        subquery without pruning or top-k selection, and stores all
        intermediate results in the host memory. Finally, the host
        processes gathered data to retrieve the final output."

        Pure unions and pure intersections of terms are supported — the
        shapes for which term-partitioned subqueries compose exactly:
        per-document scores simply add across disjoint term chunks.
        """
        from repro.core.query import AndNode, OrNode, TermNode
        from repro.core.topk import positive_k
        from repro.live.segments import SegmentedIndex

        if isinstance(self._index, SegmentedIndex):
            raise QueryError(
                "host-split execution beyond 16 terms requires a "
                "monolithic index, not a live segmented one"
            )
        if not isinstance(node, (AndNode, OrNode)) or not all(
            isinstance(c, TermNode) for c in node.children
        ):
            raise QueryError(
                "queries beyond 16 terms must be pure unions or pure "
                "intersections of terms for host-side splitting"
            )
        terms = node.terms()
        is_union = isinstance(node, OrNode)

        # Subqueries run without pruning or top-k: ET disabled, k large
        # enough to materialize every match.
        from dataclasses import replace

        exhaustive = BossAccelerator(
            self._index,
            replace(self._config, et_block=False, et_wand=False),
        )
        chunks = [
            terms[i:i + MAX_QUERY_TERMS]
            for i in range(0, len(terms), MAX_QUERY_TERMS)
        ]

        result = SearchResult(query=node, hits=[])
        scores: dict = {}
        membership: dict = {}
        for chunk in chunks:
            if len(chunk) == 1:
                sub = TermNode(chunk[0])
            elif is_union:
                sub = OrNode(tuple(TermNode(t) for t in chunk))
            else:
                # Chunk intersections: a document surviving every chunk
                # contains every query term, and its chunk scores add up
                # to the exact full-query score.
                sub = AndNode(tuple(TermNode(t) for t in chunk))
            bound = sum(
                self._index.posting_list(t).document_frequency
                for t in chunk
            )
            with observing(NULL_OBSERVER):  # one trace per query
                partial = exhaustive.search(sub, k=max(1, bound))
            # Every intermediate entry crosses to host memory: the
            # subquery's interconnect bytes are its result entries.
            result.absorb(partial)
            for hit in partial.hits:
                scores[hit.doc_id] = scores.get(hit.doc_id, 0.0) + hit.score
                membership[hit.doc_id] = membership.get(hit.doc_id, 0) + 1

        result.hits = best_hits(
            ((doc_id, score) for doc_id, score in scores.items()
             if is_union or membership[doc_id] == len(chunks)),
            positive_k(effective_k),
        )
        obs = current_observer()
        if obs.enabled:
            # One trace for the whole host-split query; each subquery
            # occupies up to the full 4-core merger chain.
            import math

            cores = max(
                math.ceil(len(chunk) / TERMS_PER_CORE) for chunk in chunks
            )
            obs.on_query_complete(result, cores_used=cores)
        return result

    def comp_types(self, terms: List[str]) -> List[str]:
        """The ``compType`` array for a term list.

        A live (segmented) index resolves each term against its newest
        sealed segment; terms living only in the write buffer are
        host-resident and uncompressed, so they contribute no entry.
        """
        self._require_init()
        if hasattr(self._index, "comp_types"):
            return self._index.comp_types(terms)
        return [self._index.posting_list(t).scheme for t in terms]

    def list_addresses(self, terms: List[str]) -> List[int]:
        """The ``listAddr`` array: each list's base address in the pool."""
        self._require_init()
        self._ensure_mapped()
        if hasattr(self._index, "list_address"):
            return [
                self.mai.translate(self._index.list_address(t))
                for t in terms
            ]
        return [
            self.mai.translate(self._index.posting_list(t).region.base)
            for t in terms
        ]

    def _ensure_mapped(self) -> None:
        """Grow the identity mapping to the current pool span.

        Monolithic indexes map once at ``init()``; a live index's pool
        grows with every seal, so the mapping is re-checked lazily.
        """
        span = self._index.layout.allocated_bytes
        if span <= self._mapped_bytes:
            return
        page = self.mai.page_size
        mapped = ((span + page - 1) // page) * page
        self.mai.map_range(0, 0, mapped)
        self._mapped_bytes = mapped

    def _require_init(self) -> None:
        if self._accelerator is None:
            raise ConfigurationError("session not initialized; call init()")
