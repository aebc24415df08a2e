"""Lucene-like software baseline: host-CPU query processing.

Models a production-grade search library (the paper's Apache Lucene
baseline) running on host cores with the index resident in the SCM pool:

* **document-at-a-time WAND** for unions — Lucene implements WAND-style
  dynamic pruning over per-term maximum scores (``MAXSCORE``/``WAND``
  in Lucene 8), but not the block-level score-estimation skipping BOSS
  adds in hardware;
* **leapfrog SvS** intersections using skip lists (block-level skipping
  on docID ranges is standard in Lucene's postings format);
* **software top-k** via a heap — results never leave host memory, so no
  result traffic is charged;
* **every loaded byte crosses the shared interconnect**: the host has no
  near-data placement, so posting and metadata traffic is charged both
  at the device and on the link.

The *work counters* produced here are converted to CPU seconds by
:class:`repro.sim.timing.LuceneTimingModel`; the paper's observation
that Lucene is compute-bound (Figure 16: ≤15% gain from DRAM) emerges
from those per-operation costs dominating the bandwidth terms.

Functionally the engine returns exactly the same top-k as BOSS (WAND is
safe and the scoring arithmetic is shared), which tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.core.engine import BossAccelerator, BossConfig
from repro.core.query import QueryNode
from repro.core.result import SearchResult
from repro.core.topk import DEFAULT_K
from repro.index.index import InvertedIndex


@dataclass(frozen=True)
class LuceneConfig:
    """Software engine configuration."""

    k: int = DEFAULT_K


class LuceneEngine:
    """Host-side software search over the pooled SCM index."""

    def __init__(self, index: InvertedIndex,
                 config: Optional[LuceneConfig] = None) -> None:
        self._index = index
        self._config = LuceneConfig() if config is None else config
        # Lucene's dynamic pruning is document-level WAND without the
        # hardware block-max score estimation.
        self._executor = BossAccelerator(
            index,
            BossConfig(k=self._config.k, et_block=False, et_wand=True),
        )

    @property
    def index(self) -> InvertedIndex:
        return self._index

    @property
    def config(self) -> LuceneConfig:
        return self._config

    def search(self, query: Union[str, QueryNode],
               k: int = None) -> SearchResult:
        """Execute a query on the software path.

        The functional result and the work counters come from the shared
        execution machinery (WAND unions, leapfrog intersections); the
        interconnect accounting is rewritten for a host-side engine: all
        loaded bytes cross the link, while the in-host top-k produces no
        result traffic.
        """
        k = self._config.k if k is None else k
        result = self._executor.search(query, k=k)
        # Host-side engine: result stays in host DRAM; loads cross the
        # shared link instead.
        result.interconnect_bytes = result.traffic.read_bytes
        return result
