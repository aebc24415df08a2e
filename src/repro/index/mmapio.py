"""Zero-copy mmap serving of ``.bossx`` index files.

:func:`repro.index.binaryio.load_index_binary` reads the whole file
into one ``bytes`` object and slices payload copies out of it. For a
serving process that is wasteful twice over: load time is a full-file
copy, and resident memory duplicates what the page cache already
holds. :class:`MmapIndexStorage` instead maps the file read-only and
reads the version-2 image over a ``memoryview`` of the mapping, so

* the fixed-width sections (document table, term directory, 19-byte
  block records) are read as ``np.frombuffer`` views and turned into
  each list's Python columns in one pass per column — no per-block
  object is built, and
* every list's compressed *payload* is a ``memoryview`` slice into the
  mapping — loading copies no payload, the pages stay shared with the
  page cache, and a payload is copied to ``bytes`` only when a query
  decodes its block.

This is the software analogue of the paper's ``init()`` placing the
index file in the SCM pool at stable addresses: the OS page cache
plays the pool, and block fetches become demand-paged reads.

Lifetime: each payload view holds a reference to the mapping, so the
mapping survives as long as any block does, even if the storage object
is dropped. :meth:`MmapIndexStorage.close` is therefore best-effort —
it releases the mapping only once no payload views remain alive.

:func:`open_index` is the front door for index files: it picks mmap
serving or a full in-memory read.
"""

from __future__ import annotations

import mmap
from pathlib import Path
from typing import Optional, Union

from repro.errors import InvertedIndexError
from repro.index.binaryio import (
    check_magic,
    load_index_binary,
    parse_index_buffer,
)
from repro.index.index import InvertedIndex

#: Accepted ``storage`` selectors for :func:`open_index`.
STORAGE_MODES = ("mmap", "binary")


class MmapIndexStorage:
    """A read-only mapped ``.bossx`` file serving zero-copy blocks."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        try:
            with open(self.path, "rb") as handle:
                self._mmap = mmap.mmap(handle.fileno(), 0,
                                       access=mmap.ACCESS_READ)
        except ValueError as exc:  # zero-length file cannot be mapped
            raise InvertedIndexError(
                f"{self.path} cannot be mapped: {exc}"
            ) from exc
        self._view: Optional[memoryview] = memoryview(self._mmap)
        try:
            check_magic(self._view, str(self.path))
        except InvertedIndexError:
            self.close()
            raise
        self._index: Optional[InvertedIndex] = None

    @property
    def closed(self) -> bool:
        return self._view is None

    def load(self) -> InvertedIndex:
        """Parse the mapping into an :class:`InvertedIndex`.

        Parsed once and cached; every block's payloads are
        ``memoryview`` slices of the mapping (asserted by the storage
        tests — nothing on this path materializes payload ``bytes``).
        """
        if self._view is None:
            raise InvertedIndexError(f"{self.path}: storage is closed")
        if self._index is None:
            self._index = parse_index_buffer(self._view,
                                             source=str(self.path))
        return self._index

    def close(self) -> None:
        """Drop the cached index and release the mapping if possible.

        Payload views exported to a still-live index pin the mapping
        (``mmap.close`` raises ``BufferError``); in that case the
        mapping stays open and is reclaimed when the last view dies.
        """
        self._index = None
        if self._view is not None:
            self._view.release()
            self._view = None
        try:
            self._mmap.close()
        except BufferError:
            pass  # exported block views still pin the mapping

    def __enter__(self) -> "MmapIndexStorage":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def load_index_mmap(path: Union[str, Path]) -> InvertedIndex:
    """Open ``path`` with :class:`MmapIndexStorage` and load the index.

    The storage object is not returned; the index's block views keep
    the mapping alive for exactly as long as the index is.
    """
    return MmapIndexStorage(path).load()


def open_index(path: Union[str, Path],
               storage: str = "mmap") -> InvertedIndex:
    """Load a ``.bossx`` index file, choosing how it is held in memory.

    ``storage`` is one of :data:`STORAGE_MODES`: ``mmap`` serves blocks
    as ``memoryview`` slices of a read-only mapping (zero-copy);
    ``binary`` reads the file fully into memory (payloads
    are independent ``bytes``; use when the file may be replaced or
    truncated while the index is live). Anything that is not a
    ``.bossx`` file raises :class:`~repro.errors.InvertedIndexError`
    naming the path.
    """
    if storage not in STORAGE_MODES:
        raise InvertedIndexError(
            f"unknown storage {storage!r}; expected one of {STORAGE_MODES}"
        )
    if storage == "binary":
        return load_index_binary(path)
    return load_index_mmap(path)
