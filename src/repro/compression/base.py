"""Codec interface and registry.

A :class:`Codec` turns a sequence of non-negative integers into a compact
``bytes`` payload and back. Codecs are *block oriented*: the caller is
expected to hand them bounded runs of values (the index layer uses blocks
of up to 128 docID deltas, Section IV-A of the paper), and the caller is
responsible for remembering the element count — exactly like the per-block
metadata in the paper, which records the number of elements so the
hardware decompressor knows when to stop.
"""

from __future__ import annotations

import math
import struct
from abc import ABC, abstractmethod
from array import array
from itertools import accumulate
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Type

import numpy as np

from repro.errors import CompressionError


class WordLayouts(NamedTuple):
    """A word-packed (Simple family) codec's layouts as flat numpy
    tables: what :meth:`Codec._decode_word_lists` reads. Build one with
    :func:`word_layouts`."""

    #: One word: ``<u4`` or ``<u8``.
    dtype: np.dtype
    #: Most values one word yields (a zero run's length included).
    slots: int
    #: ``(16,)``: values a word of each selector yields — its field
    #: count, or the run length of a zero-run layout.
    values: np.ndarray
    #: ``(16 * slots,)``: at ``selector * slots + j``, the bit position
    #: of the word's ``j``-th value.
    shifts: np.ndarray
    #: Likewise its mask; zero for a value that has no field (a zero
    #: run's) or no slot.
    masks: np.ndarray


def word_layouts(dtype: str, fields: Sequence[Sequence[int]],
                 values: Sequence[int]) -> WordLayouts:
    """:class:`WordLayouts` from ``fields[s]``, the field widths of
    selector ``s`` in packing order after the 4-bit selector, and
    ``values[s]``, the values its word yields."""
    dtype = np.dtype(dtype)
    slots = max(values)
    shifts = np.zeros((16, slots), dtype)
    masks = np.zeros((16, slots), dtype)
    for selector, widths in enumerate(fields):
        shift = 4
        for slot, width in enumerate(widths):
            shifts[selector, slot] = shift
            masks[selector, slot] = (1 << width) - 1
            shift += width
    return WordLayouts(dtype, slots, np.array(values, dtype=np.intp),
                       shifts.ravel(), masks.ravel())


class Codec(ABC):
    """Abstract integer-sequence compressor.

    Subclasses must be stateless: ``encode``/``decode`` may be called
    concurrently on the same instance. Each subclass declares:

    * ``name`` — the short scheme identifier used throughout the paper
      (``"BP"``, ``"VB"``, ...), also the registry key;
    * ``max_value_bits`` — the widest value (in bits) the scheme can
      represent. Values outside the range raise :class:`CompressionError`.
    """

    #: Registry key and display name ("BP", "VB", "PFD", ...).
    name: str = "abstract"
    #: Maximum representable value width in bits.
    max_value_bits: int = 32
    #: The smallest list (in values, both streams of every block) that
    #: :meth:`decode_blocks` takes in one numpy pass. A codec with such
    #: a pass sets it where, measured as ``decode_arrays`` of one- and
    #: two-block posting lists, numpy's per-call set-up stops costing
    #: more than decoding block by block; the base class has no pass.
    _one_pass_from: float = math.inf

    @abstractmethod
    def encode(self, values: Sequence[int],
               widths: Optional[bytes] = None) -> bytes:
        """Compress ``values`` into a self-contained byte payload.

        ``widths``, when given, is the stream's bit-length column
        (:meth:`_widths`), already derived by the caller."""

    @abstractmethod
    def decode(self, data: bytes, count: int) -> List[int]:
        """Recover exactly ``count`` values from ``data``.

        ``count`` mirrors the "number of elements in the block" field of
        the paper's 19-byte per-block metadata.

        This is the *reference* per-value decoder: simple, obviously
        correct, and the oracle the bulk fast path is tested against.
        """

    def decode_block(self, data: bytes, count: int) -> array:
        """Bulk-decode fast path: ``count`` values as an ``array('I')``.

        Semantically identical to :meth:`decode` on every valid payload
        (the property suite pins ``list(decode_block(p)) == decode(p)``),
        but implemented block-at-a-time where the subclass can — table
        driven selector dispatch, whole-frame bit extraction,
        ``int.from_bytes`` chunking — instead of per-integer Python
        loops. Subclasses without a specialized path inherit this
        wrapper over the reference decoder.

        Raises :class:`CompressionError` on truncated or corrupt input;
        a corrupt payload whose fields exceed 32 bits is reported as a
        :class:`CompressionError` (the reference path would return the
        out-of-range integer).
        """
        try:
            return array("I", self.decode(data, count))
        except OverflowError:
            raise CompressionError(
                f"{self.name}: decoded value exceeds 32 bits"
            ) from None

    def decode_blocks(self, payloads: Sequence, counts: Sequence[int]
                      ) -> np.ndarray:
        """Every payload decoded, concatenated: one ``uint32`` vector.

        ``payloads[i]`` (``bytes`` or a ``memoryview``) holds
        ``counts[i]`` values; the result equals the concatenation of
        ``decode_block(payloads[i], counts[i])`` value for value, and
        raises :class:`CompressionError` whenever one of those would.
        This is the list decoder: one call covers both streams of every
        block of a posting list, so that a codec with a numpy pass
        (:meth:`_decode_in_one_pass`) pays its set-up once per list.
        A list :meth:`decodes_in_one_pass` turns down takes the payload
        loop.
        """
        if self.decodes_in_one_pass(sum(counts)):
            return self._decode_in_one_pass(payloads, counts)
        return self._decode_each(payloads, counts)

    def decodes_in_one_pass(self, values: int) -> bool:
        """Whether :meth:`decode_blocks` takes a list of ``values``
        values (both streams of every block) in one numpy pass."""
        return values >= self._one_pass_from

    def decode_block_columnar(self, data, count: int) -> np.ndarray:
        """:meth:`decode_block` as a fresh, writable ``uint32`` vector.

        An adapter only: nothing in ``src/`` calls it and no codec
        overrides it. It stays because the benchmark's codec probes
        call it by name; retiring it is a later benchmark PR's job.
        ``data`` may be any byte buffer (``bytes`` or a ``memoryview``).
        """
        return np.array(self.decode_block(bytes(data), count),
                        dtype=np.uint32)

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------

    def _decode_words(self, data: bytes, count: int, word: str,
                      extract) -> array:
        """Bulk :meth:`decode_block` of a word-packed (Simple family)
        payload: ``word`` is the struct code of one word, and
        ``extract[word & 0xF](word)`` the tuple of that word's fields."""
        size = struct.calcsize(word)
        if len(data) % size:
            raise CompressionError(f"{self.name}: payload is not word aligned")
        values: List[int] = []
        extend = values.extend
        for w in struct.unpack(f"<{len(data) // size}{word}", data):
            extend(extract[w & 0xF](w))
        if len(values) < count:
            raise CompressionError(f"{self.name}: stream ended after "
                                   f"{len(values)} of {count} values")
        del values[count:]  # the final word's padding fields
        try:
            return array("I", values)
        except OverflowError:  # a corrupt field wider than 32 bits
            raise CompressionError(
                f"{self.name}: decoded value exceeds 32 bits"
            ) from None

    def _decode_each(self, payloads: Sequence,
                     counts: Sequence[int]) -> np.ndarray:
        """:meth:`decode_blocks` as the loop over :meth:`decode_block`."""
        out = array("I")
        for data, count in zip(payloads, counts):
            out.extend(self.decode_block(bytes(data), count))
        return np.frombuffer(out, dtype=np.uint32)

    def _decode_in_one_pass(self, payloads: Sequence,
                            counts: Sequence[int]) -> np.ndarray:
        """:meth:`decode_blocks` as one numpy pass over the list; a
        codec that sets ``_one_pass_from`` provides it."""
        raise NotImplementedError

    def _decode_word_lists(self, payloads: Sequence, counts: Sequence[int],
                           layouts: WordLayouts) -> np.ndarray:
        """:meth:`decode_blocks` of a word-packed (Simple family) codec.

        All payloads are one word vector, and the values the words
        yield, in order, are the streams end to end. Each stream keeps
        its first ``count`` values (which drops the padding of its
        final word, exactly as :meth:`_decode_words` does); for each
        kept value, the word it lies in is a ``searchsorted`` over the
        words' running value counts, and its place in that word picks
        a shift and a mask from the selector's row of the tables. So
        the whole list is a handful of vector operations over the kept
        values, whatever the layouts.
        """
        size = layouts.dtype.itemsize
        if any(len(data) % size for data in payloads):
            raise CompressionError(f"{self.name}: payload is not word aligned")
        words = np.frombuffer(b"".join(payloads), layouts.dtype)
        selectors = (words & 0xF).astype(np.intp)
        # ends[w + 1]: values yielded by words 0..w, streams end to end.
        ends = np.zeros(len(words) + 1, np.intp)
        np.add.accumulate(layouts.values.take(selectors), out=ends[1:])
        bounds = ends.take(list(accumulate(
            [0] + [len(data) // size for data in payloads]))).tolist()
        # Where each stream's first kept value sits among all the
        # yielded values, less its own place among the kept ones.
        shifts = []
        kept = 0
        for start, end, count in zip(bounds, bounds[1:], counts):
            if end - start < count:
                raise CompressionError(
                    f"{self.name}: stream ended after {end - start} of "
                    f"{count} values"
                )
            shifts.append(start - kept)
            kept += count
        at = np.arange(kept)
        at += np.array(shifts, dtype=np.intp).repeat(counts)
        word = ends.searchsorted(at, side="right")
        word -= 1
        # A value's slot in its word, offset to its selector's row.
        at += (selectors * layouts.slots - ends[:-1]).take(word)
        values = words.take(word) >> layouts.shifts.take(at)
        values &= layouts.masks.take(at)
        if size > 4 and kept and values.max() > 0xFFFFFFFF:
            raise CompressionError(
                f"{self.name}: decoded value exceeds 32 bits"
            )
        return values.astype(np.uint32)

    def _widths(self, values: Sequence[int],
                widths: Optional[bytes] = None) -> bytes:
        """The one pass every encoder starts from: each value's bit length.

        ``widths[i] == values[i].bit_length()``, as a ``bytes`` column so
        that mode selection, frame widths and encoded sizes come from
        slice-``max``, ``count`` and ``translate`` instead of per-value
        Python. The stream is validated on the way — two C-speed scans —
        and a stream that fails is handed to :meth:`_check_values`,
        which walks it in order to name the first offender.

        A caller that already holds the column passes it as ``widths``
        (the index builder derives every stream's column of a build in
        one array pass); its values are non-negative by construction,
        so only the width limit is checked.
        """
        if widths is None:
            try:
                widths = bytes(map(int.bit_length, values))
            except ValueError:
                # Some value is wider than a byte can say: over any limit.
                widths = b"\xff"
            if widths and min(values) < 0:
                self._check_values(values)
        if widths and max(widths) > self.max_value_bits:
            self._check_values(values)
        return widths

    def _check_values(self, values: Sequence[int]) -> None:
        """Raise for the first value that is negative or too wide."""
        limit = 1 << self.max_value_bits
        for v in values:
            if v < 0:
                raise CompressionError(
                    f"{self.name}: negative value {v} is not encodable"
                )
            if v >= limit:
                raise CompressionError(
                    f"{self.name}: value {v} exceeds {self.max_value_bits}-bit limit"
                )

    def compressed_size(self, values: Sequence[int],
                        widths: Optional[bytes] = None) -> int:
        """``len(encode(values, widths))``, raising whatever ``encode``
        raises.

        The paper's five schemes override this to answer from
        :meth:`_widths` alone, without building a payload — which is
        what lets :class:`~repro.compression.hybrid.HybridSelector`
        size every candidate and encode nothing.
        """
        return len(self.encode(values, widths))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"


class CodecRegistry:
    """Name-keyed registry of codec classes.

    The registry backs the ``compType`` argument of the paper's
    :func:`repro.api.search` offloading call, which names the compression
    scheme of each posting list, and the programmable decompression
    module's scheme dispatch.
    """

    def __init__(self) -> None:
        self._codecs: Dict[str, Type[Codec]] = {}

    def register(self, codec_cls: Type[Codec]) -> Type[Codec]:
        """Register ``codec_cls`` under its ``name``; usable as a decorator."""
        name = codec_cls.name
        if name in self._codecs:
            raise CompressionError(f"codec {name!r} already registered")
        self._codecs[name] = codec_cls
        return codec_cls

    def create(self, name: str) -> Codec:
        """Instantiate the codec registered under ``name``."""
        try:
            return self._codecs[name]()
        except KeyError:
            known = ", ".join(sorted(self._codecs))
            raise CompressionError(
                f"unknown codec {name!r}; known codecs: {known}"
            ) from None

    def names(self) -> List[str]:
        """All registered codec names, sorted."""
        return sorted(self._codecs)

    def __contains__(self, name: str) -> bool:
        return name in self._codecs

    def __iter__(self) -> Iterable[str]:
        return iter(sorted(self._codecs))


#: Process-wide default registry, populated by the codec modules on import.
DEFAULT_REGISTRY = CodecRegistry()


def get_codec(name: str) -> Codec:
    """Instantiate a codec by scheme name from the default registry."""
    return DEFAULT_REGISTRY.create(name)


def list_codecs() -> List[str]:
    """Names of every codec in the default registry."""
    return DEFAULT_REGISTRY.names()
