"""Hybrid per-list compression scheme selection.

The paper compresses each posting list with the *best* scheme for that
list ("Hybrid" in Figure 3; "we find the best compression scheme among the
five in advance and use the best for BOSS", Section V-A). This module
implements that offline selection: given a value stream, ask every
candidate codec for its encoded size (:meth:`Codec.compressed_size`,
which the paper's five answer from the stream's bit lengths without
building a payload) and keep the smallest.

Because BOSS's decompression module is programmable (Section IV-C), using
a different scheme per list costs nothing at query time beyond loading the
corresponding stage-2 configuration, so hybrid strictly dominates any
single scheme in compression ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.compression.base import Codec, get_codec, list_codecs
from repro.errors import CompressionError

#: Scheme set used throughout the paper's evaluation (PFD is subsumed by
#: OptPFD, Section III-B).
PAPER_SCHEMES: Tuple[str, ...] = ("BP", "VB", "OptPFD", "S16", "S8b")


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of a hybrid selection for one value stream."""

    #: Winning scheme name.
    scheme: str
    #: Encoded size in bytes under the winning scheme.
    size: int
    #: Encoded size per candidate scheme (schemes that failed to encode
    #: the stream, e.g. S16 on >28-bit values, are absent).
    sizes: Dict[str, int]
    #: Number of values in the stream.
    count: int


class HybridSelector:
    """Chooses the smallest-output codec per value stream.

    Parameters
    ----------
    schemes:
        Candidate scheme names. Defaults to the paper's five-scheme set.
    """

    def __init__(self, schemes: Optional[Sequence[str]] = None) -> None:
        names = tuple(schemes) if schemes is not None else PAPER_SCHEMES
        unknown = [n for n in names if n not in list_codecs()]
        if unknown:
            raise CompressionError(f"unknown schemes: {unknown}")
        if not names:
            raise CompressionError("hybrid selector needs at least one scheme")
        self._schemes = names
        self._codecs: Dict[str, Codec] = {n: get_codec(n) for n in names}

    @property
    def schemes(self) -> Tuple[str, ...]:
        """Candidate scheme names, in preference order for ties."""
        return self._schemes

    def codec(self, scheme: str) -> Codec:
        """The selector's own instance of candidate ``scheme``."""
        return self._codecs[scheme]

    def select(self, values: Sequence[int],
               widths: Optional[bytes] = None) -> SelectionResult:
        """Return the best scheme for ``values`` and the size table.

        ``widths`` is the stream's bit-length column when the caller
        already holds it (:meth:`Codec._widths`); every candidate sizes
        the stream from it."""
        sizes: Dict[str, int] = {}
        for name, codec in self._codecs.items():
            try:
                sizes[name] = codec.compressed_size(values, widths)
            except CompressionError:
                continue  # scheme cannot represent this stream
        if not sizes:
            raise CompressionError(
                "no candidate scheme can encode the stream"
            )
        # Ties go to the earlier candidate: ``sizes`` is in candidate
        # order and min() keeps the first of equals.
        best = min(sizes, key=sizes.__getitem__)
        return SelectionResult(scheme=best, size=sizes[best], sizes=sizes,
                               count=len(values))
