"""Index integrity checking (``fsck`` for .boss indexes).

Every skip decision BOSS makes trusts the per-block metadata: docID
ranges drive the overlap check, maximum term-scores drive early
termination, counts and offsets drive decompression. A corrupted or
hand-edited index silently breaks those guarantees — ET would drop
true results. This checker verifies every invariant the engines rely
on and reports violations instead of letting them surface as wrong
search results:

* blocks decode cleanly and hold exactly ``count`` postings;
* docIDs are strictly increasing within and across blocks, within the
  corpus range;
* metadata first/last docIDs equal the decoded endpoints;
* every block's max term-score is exactly its postings' true maximum
  rounded up to float32 (the record's field), and the list-level
  maximum is the exact double maximum over the list;
* document frequency equals the sum of block counts; IDF matches the
  corpus statistics (or is flagged as shard-global);
* regions do not overlap.

Record offsets, doc/tf splits and docID ranges against the document
table are checked when a file is read
(:func:`repro.index.binaryio.read_image`); this pass reads only the
list columns and builds no per-block objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Union

from repro.errors import CompressionError
from repro.index.blocks import ceil_float32
from repro.index.index import InvertedIndex

#: Tolerance for the IDF comparison.
_EPS = 1e-9


@dataclass
class ValidationReport:
    """Outcome of one integrity check."""

    terms_checked: int = 0
    blocks_checked: int = 0
    postings_checked: int = 0
    errors: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def _error(self, message: str) -> None:
        self.errors.append(message)

    def _warn(self, message: str) -> None:
        self.warnings.append(message)


def validate_index(index: InvertedIndex,
                   check_scores: bool = True) -> ValidationReport:
    """Check every engine-trusted invariant of ``index``.

    ``check_scores`` re-derives BM25 term scores for every posting to
    verify the block maxima (the expensive part; disable for a quick
    structural pass).
    """
    report = ValidationReport()
    scorer = index.scorer
    num_docs = index.stats.num_docs

    previous_region_end = -1
    for term in index.terms:
        posting_list = index.posting_list(term)
        report.terms_checked += 1

        # Regions: laid out in term order, non-overlapping.
        region = posting_list.region
        if region.base < previous_region_end:
            report._error(
                f"{term}: region [{region.base}, {region.end}) overlaps "
                f"the previous list"
            )
        previous_region_end = max(previous_region_end, region.end)

        block_counts = 0
        previous_doc = -1
        list_max_true = 0.0
        # The engine's list decoder first; a list it refuses is decoded
        # again block by block, so that each message names its block.
        try:
            decoded = posting_list.decode_arrays()
        except CompressionError:
            decoded = None
        records = zip(posting_list.firsts, posting_list.lasts,
                      posting_list.block_max, posting_list.counts)
        for block_index, (first, last, block_max, count) in enumerate(
                records):
            report.blocks_checked += 1
            label = f"{term}[block {block_index}]"
            if decoded is not None:
                doc_ids, tfs = (column.tolist()
                                for column in decoded[block_index])
            else:
                try:
                    postings = posting_list.decode_block(block_index)
                except CompressionError as exc:
                    report._error(
                        f"{label}: payload does not decode ({exc})")
                    continue
                doc_ids = [p.doc_id for p in postings]
                tfs = [p.tf for p in postings]
            report.postings_checked += len(doc_ids)
            block_counts += count

            if len(doc_ids) != count:
                report._error(
                    f"{label}: decoded {len(doc_ids)} postings, "
                    f"metadata says {count}"
                )
                continue
            if doc_ids != sorted(set(doc_ids)):
                report._error(f"{label}: docIDs not strictly increasing")
            if (doc_ids[0], doc_ids[-1]) != (first, last):
                report._error(
                    f"{label}: docIDs span [{doc_ids[0]}, {doc_ids[-1]}], "
                    f"metadata says [{first}, {last}]")
            if doc_ids[0] <= previous_doc:
                report._error(
                    f"{label}: overlaps previous block "
                    f"({doc_ids[0]} <= {previous_doc})"
                )
            previous_doc = doc_ids[-1]
            if doc_ids[-1] >= num_docs:
                report._error(
                    f"{label}: docID {doc_ids[-1]} beyond corpus "
                    f"of {num_docs}"
                )
            if min(tfs) < 1:
                report._error(f"{label}: tf below 1")

            if check_scores:
                true_max = max(
                    scorer.term_score(posting_list.idf, tf, doc_id)
                    for doc_id, tf in zip(doc_ids, tfs)
                )
                list_max_true = max(list_max_true, true_max)
                stored = float(ceil_float32(true_max))
                if block_max != stored:
                    report._error(
                        f"{label}: max term-score {block_max} is not the "
                        f"true bound {true_max} rounded up to float32 "
                        f"({stored})" + (
                            " — early termination would drop results"
                            if block_max < true_max else ""))

        if block_counts != posting_list.document_frequency:
            report._error(
                f"{term}: df {posting_list.document_frequency} != "
                f"block counts {block_counts}"
            )
        if (check_scores and posting_list.num_blocks
                and posting_list.max_term_score != list_max_true):
            report._error(
                f"{term}: list max score {posting_list.max_term_score} "
                f"!= exact max over postings {list_max_true}"
            )
        local_idf = scorer.idf(posting_list.document_frequency)
        if abs(local_idf - posting_list.idf) > _EPS:
            report._warn(
                f"{term}: idf {posting_list.idf} differs from the "
                f"corpus-local value {local_idf} (shard-global statistics?)"
            )
    return report


def validate_segmented(segmented,
                       check_scores: bool = True, *,
                       manifest: Optional[dict] = None,
                       segment_dir: Optional[Union[str, Path]] = None
                       ) -> ValidationReport:
    """Check the live-index invariants of a ``SegmentedIndex``.

    Runs :func:`validate_index` over every sealed segment (each is a
    complete index whose baked metadata must be self-consistent with
    its own scorer snapshot), then checks the cross-segment invariants
    the read path relies on:

    * every docID lives in at most one place (one segment's payload, or
      the write buffer);
    * tombstones reference documents the segment actually holds, and
      agree with the liveness bitmap in the statistics;
    * recorded per-document lengths match the statistics table;
    * the global statistics are exactly the sum over parts: live count,
      live token total, and every term's live document frequency.

    For a durable index, pass the loaded ``manifest`` and/or the WAL
    directory as ``segment_dir`` to extend the check to the durable
    state: the manifest must describe exactly the installed segment
    set (ids, tiers, sizes), every manifest entry's segment file must
    exist on disk at its recorded size, and no orphan ``seg-*.seg``
    file may sit in the directory outside the committed set.

    The merge scheduler runs this after every compaction (with
    ``check_scores=False`` for speed, no durable-state arguments);
    the differential tests run the full pass.
    """
    report = ValidationReport()
    stats = segmented.stats

    owner = {}
    for segment in segmented.segments:
        label = f"segment {segment.segment_id}"
        sub = validate_index(segment.index, check_scores=check_scores)
        report.terms_checked += sub.terms_checked
        report.blocks_checked += sub.blocks_checked
        report.postings_checked += sub.postings_checked
        for error in sub.errors:
            report._error(f"{label}: {error}")

        for doc_id in segment.tombstones:
            if doc_id not in segment.doc_lengths:
                report._error(
                    f"{label}: tombstone for docID {doc_id} it never held"
                )
            if stats.is_live(doc_id):
                report._error(
                    f"{label}: docID {doc_id} tombstoned but still live "
                    f"in the statistics"
                )
        for doc_id, length in segment.doc_lengths.items():
            if doc_id in owner:
                report._error(
                    f"{label}: docID {doc_id} also held by {owner[doc_id]}"
                )
            owner[doc_id] = label
            if (doc_id not in segment.tombstones
                    and not stats.is_live(doc_id)):
                report._error(
                    f"{label}: docID {doc_id} not tombstoned yet dead "
                    f"in the statistics"
                )
            if stats.doc_length(doc_id) != length:
                report._error(
                    f"{label}: docID {doc_id} length {length} != "
                    f"statistics {stats.doc_length(doc_id)}"
                )

    live_docs = 0
    live_tokens = 0
    live_dfs = {}
    for segment in segmented.segments:
        for doc_id in segment.doc_lengths:
            if doc_id in segment.tombstones:
                continue
            live_docs += 1
            live_tokens += segment.doc_lengths[doc_id]
            for term in segment.doc_terms[doc_id]:
                live_dfs[term] = live_dfs.get(term, 0) + 1
    for doc_id in segmented.memseg.doc_ids():
        if doc_id in owner:
            report._error(
                f"buffer: docID {doc_id} also held by {owner[doc_id]}"
            )
        if not stats.is_live(doc_id):
            report._error(f"buffer: docID {doc_id} dead in the statistics")
        live_docs += 1
        live_tokens += segmented.memseg.length_of(doc_id)
        for term in segmented.memseg.terms_of(doc_id):
            live_dfs[term] = live_dfs.get(term, 0) + 1

    if live_docs != stats.num_docs:
        report._error(
            f"global: live count {stats.num_docs} != sum over parts "
            f"{live_docs}"
        )
    if live_tokens != stats.total_tokens:
        report._error(
            f"global: live token total {stats.total_tokens} != sum over "
            f"parts {live_tokens}"
        )
    for term in set(live_dfs) | set(stats.terms):
        expected = live_dfs.get(term, 0)
        recorded = stats.df(term)
        if expected != recorded:
            report._error(
                f"global: term {term!r} df {recorded} != sum over parts "
                f"{expected}"
            )

    if manifest is not None or segment_dir is not None:
        _validate_durable_state(segmented, manifest, segment_dir, report)
    return report


def _validate_durable_state(segmented, manifest: Optional[dict],
                            segment_dir: Optional[Union[str, Path]],
                            report: ValidationReport) -> None:
    """Manifest <-> installed segments <-> segment files agreement."""
    installed = {s.segment_id: s for s in segmented.segments}
    entries = {}
    if manifest is not None:
        for entry in manifest.get("segments", []):
            entries[entry["id"]] = entry
        for segment_id, entry in entries.items():
            segment = installed.get(segment_id)
            if segment is None:
                report._error(
                    f"manifest: segment {segment_id} committed but not "
                    f"installed"
                )
                continue
            if entry["tier"] != segment.tier:
                report._error(
                    f"manifest: segment {segment_id} tier {entry['tier']} "
                    f"!= installed tier {segment.tier}"
                )
            if entry["nbytes"] != segment.nbytes:
                report._error(
                    f"manifest: segment {segment_id} nbytes "
                    f"{entry['nbytes']} != installed {segment.nbytes}"
                )
        for segment_id in installed:
            if segment_id not in entries:
                report._error(
                    f"manifest: segment {segment_id} installed but not "
                    f"committed"
                )
    if segment_dir is not None:
        from repro.live.segfile import segment_file_name

        segment_dir = Path(segment_dir)
        committed = (entries if manifest is not None else installed)
        for segment_id in committed:
            path = segment_dir / segment_file_name(segment_id)
            if not path.exists():
                report._error(
                    f"durable: segment {segment_id} committed but "
                    f"{path.name} is missing on disk"
                )
        expected_names = {segment_file_name(i) for i in committed}
        for stray in sorted(segment_dir.glob("seg-*.seg")):
            if stray.name not in expected_names:
                report._error(
                    f"durable: orphan segment file {stray.name} outside "
                    f"the committed set"
                )
