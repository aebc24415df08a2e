"""Discrete work counters shared by every engine.

Each counter corresponds to work performed by one pipeline module of the
paper's Figure 4(b) (or its software equivalent), so the timing model can
find the pipeline bottleneck, and the analysis figures (14, 15) can report
skip effectiveness.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class WorkCounters:
    """Work-item counts for one query execution."""

    #: Compressed blocks actually fetched and decompressed.
    blocks_fetched: int = 0
    #: Blocks skipped by the overlap check unit (intersection queries).
    blocks_skipped_overlap: int = 0
    #: Blocks skipped by the score-estimation unit (union ET).
    blocks_skipped_et: int = 0
    #: Block-metadata records inspected (19 B each, cheap sequential reads).
    metadata_inspected: int = 0
    #: Postings decompressed (docID + tf pairs through the decoder lanes).
    postings_decoded: int = 0
    #: Documents whose full BM25 query-score was computed — the paper's
    #: "evaluated documents" of Figure 14.
    docs_evaluated: int = 0
    #: Documents that satisfied the query condition (set-operation output).
    docs_matched: int = 0
    #: Compare/advance steps in the union or intersection merger.
    merge_ops: int = 0
    #: Entries submitted to the top-k module.
    topk_inserts: int = 0
    #: Random-access probes issued by binary search (IIU's intersection).
    probe_reads: int = 0
    #: Iterative multi-term passes (IIU spills intermediates per pass).
    intermediate_passes: int = 0

    @property
    def blocks_skipped(self) -> int:
        """All skipped blocks regardless of mechanism."""
        return self.blocks_skipped_overlap + self.blocks_skipped_et

    @property
    def blocks_considered(self) -> int:
        """Fetched plus skipped — the block universe the query touched."""
        return self.blocks_fetched + self.blocks_skipped

    def merge(self, other: "WorkCounters") -> None:
        """Accumulate another execution's counters into this one."""
        for name in _WORK_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def copy(self) -> "WorkCounters":
        out = WorkCounters()
        out.merge(self)
        return out


#: Counter names, read once: ``dataclasses.fields`` rebuilds its tuple
#: on every call, and ``merge`` runs once per leaf and per segment.
_WORK_FIELDS = tuple(f.name for f in fields(WorkCounters))
