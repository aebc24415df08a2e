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

import struct
from abc import ABC, abstractmethod
from array import array
from typing import Dict, Iterable, List, Sequence, Type

import numpy as np

from repro.errors import CompressionError


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

    @abstractmethod
    def encode(self, values: Sequence[int]) -> bytes:
        """Compress ``values`` into a self-contained byte payload."""

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

    def _widths(self, values: Sequence[int]) -> bytes:
        """The one pass every encoder starts from: each value's bit length.

        ``widths[i] == values[i].bit_length()``, as a ``bytes`` column so
        that mode selection, frame widths and encoded sizes come from
        slice-``max``, ``count`` and ``translate`` instead of per-value
        Python. The stream is validated on the way — two C-speed scans —
        and a stream that fails is handed to :meth:`_check_values`,
        which walks it in order to name the first offender.
        """
        try:
            widths = bytes(map(int.bit_length, values))
        except ValueError:
            # Some value is wider than a byte can say: over any limit.
            widths = b"\xff"
        if widths and (max(widths) > self.max_value_bits
                       or min(values) < 0):
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

    def compressed_size(self, values: Sequence[int]) -> int:
        """``len(encode(values))``, raising whatever ``encode`` raises.

        The paper's five schemes override this to answer from
        :meth:`_widths` alone, without building a payload — which is
        what lets :class:`~repro.compression.hybrid.HybridSelector`
        size every candidate and encode nothing.
        """
        return len(self.encode(values))

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
