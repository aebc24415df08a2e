"""d-gap (delta) transformation for sorted docID sequences.

Posting lists store strictly increasing docIDs. Compressing the *gaps*
between consecutive docIDs instead of the raw 32-bit identifiers is what
makes integer codecs effective (paper Section II-B). Because docIDs are
strictly increasing, every gap is at least 1, so we store ``gap - 1``
to shave a bit off dense lists — the decoder adds it back.

The block layer stores a block's first docID in its metadata (the paper's
"first uncompressed docID" field), so the transform is parameterized by a
``base``: the docID that precedes the first value of the run.
"""

from __future__ import annotations

from array import array
from itertools import accumulate
from typing import List, Sequence

from repro.errors import CompressionError


def deltas_from_doc_ids(doc_ids: Sequence[int], base: int = -1) -> List[int]:
    """Convert strictly increasing docIDs to non-negative d-gaps.

    ``base`` is the docID immediately preceding ``doc_ids[0]`` in the
    posting list (``-1`` for the start of a list, so that docID 0 maps to
    gap 0). Each output value is ``doc_ids[i] - doc_ids[i-1] - 1``.

    Raises :class:`CompressionError` if the sequence is not strictly
    increasing or does not stay above ``base``.
    """
    previous = [base, *doc_ids[:-1]]
    deltas = [doc_id - prev - 1 for doc_id, prev in zip(doc_ids, previous)]
    if deltas and min(deltas) < 0:
        first = next(i for i, gap in enumerate(deltas) if gap < 0)
        raise CompressionError(
            f"docIDs must be strictly increasing above base {base}; "
            f"saw {doc_ids[first]} after {previous[first]}"
        )
    return deltas


def doc_ids_from_deltas(deltas: Sequence[int], base: int = -1) -> List[int]:
    """Inverse of :func:`deltas_from_doc_ids`; a docID past 32 bits
    raises :class:`CompressionError`, as in
    :func:`doc_ids_from_deltas_array`."""
    doc_ids: List[int] = []
    prev = base
    for delta in deltas:
        if delta < 0:
            raise CompressionError(f"negative d-gap {delta}")
        prev = prev + delta + 1
        doc_ids.append(prev)
    if prev > 0xFFFFFFFF:
        raise CompressionError(
            f"docID beyond 32 bits accumulating d-gaps above base {base}"
        )
    return doc_ids


def doc_ids_from_deltas_array(deltas: Sequence[int],
                              base: int = -1) -> array:
    """Bulk inverse transform returning an ``array('I')``.

    ``doc_id[i] = base + (i + 1) + prefix_sum(deltas)[i]``, computed with
    a C-speed :func:`itertools.accumulate` instead of a per-value Python
    loop. The input is expected to be non-negative (the bulk codec paths
    hand over unsigned ``array('I')`` values, which cannot be negative);
    a docID overflowing 32 bits raises :class:`CompressionError`.
    """
    start = base + 1
    try:
        return array(
            "I",
            [start + i + s for i, s in enumerate(accumulate(deltas))],
        )
    except OverflowError:
        raise CompressionError(
            f"docID beyond 32 bits accumulating d-gaps above base {base}"
        ) from None
