"""Append-only write-ahead log for the durable live index.

Every mutation that must survive a crash is appended here *before* the
in-memory state advances past its commit point:

* ``add`` / ``delete`` — the op stream itself (tokens in original
  order, so a replayed :class:`~repro.live.memseg.MemSegment` rebuilds
  byte-identical postings);
* ``seal`` — the buffer at this log position became segment N (logged
  after the segment file landed durably, so replay can load it);
* ``merge`` — inputs were compacted into an output segment (or dropped
  entirely when every input document was tombstoned).

**Framing.** The file opens with the magic ``BOSSWAL1``; each record is
``u32 payload length | u32 CRC32(payload) | payload``, with the payload
encoded through the same varint/length-prefix primitives as the
``.bossx`` format (:mod:`repro.index.binaryio`). A torn tail — a
truncated frame or a checksum mismatch — is *expected* after a crash:
:func:`read_wal` stops at the last valid record and reports how many
trailing bytes it refused, and recovery truncates them away.

**Metering.** The WAL is index-maintenance state on the SCM device, so
every appended frame is charged as a sequential ``ST Index`` write into
the writer's shared :class:`~repro.scm.traffic.TrafficCounter` —
appends ride the device's sequential-write path (group commit), they do
not open scheduler busy-windows of their own.

**Crash model.** The harness kills a writer by raising
:class:`~repro.errors.CrashError` at a named kill-point and abandoning
the object; anything already ``flush()``-ed to the OS survives such a
death, so ``fsync`` per append (for power-loss durability) is optional
and off by default.
"""

from __future__ import annotations

import io
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, List, Optional, Tuple, Union

from repro.errors import InvertedIndexError
from repro.index.binaryio import (
    read_bytes_field,
    read_varint,
    write_bytes_field,
    write_varint,
)
from repro.observability.observer import NULL_OBSERVER, Observer

WAL_MAGIC = b"BOSSWAL1"

#: Frame header: u32 LE payload length + u32 LE CRC32(payload).
_FRAME_HEADER = struct.Struct("<II")

#: Payload op-type tags (first varint of every payload).
_OP_ADD = 1
_OP_DELETE = 2
_OP_SEAL = 3
_OP_MERGE = 4


@dataclass(frozen=True)
class AddRecord:
    """One buffered add: the allocated docID and its token stream."""

    doc_id: int
    tokens: Tuple[str, ...]

    kind = "add"


@dataclass(frozen=True)
class DeleteRecord:
    """One delete by global docID (buffer drop or tombstone)."""

    doc_id: int

    kind = "delete"


@dataclass(frozen=True)
class SealRecord:
    """The buffer at this log position sealed into segment ``segment_id``."""

    segment_id: int

    kind = "seal"


@dataclass(frozen=True)
class MergeCommitRecord:
    """``input_ids`` compacted into ``output_id`` on ``output_tier``.

    ``output_id`` is ``None`` when every input document was tombstoned
    and the merge collapsed to nothing.
    """

    input_ids: Tuple[int, ...]
    output_id: Optional[int]
    output_tier: int

    kind = "merge"


WalRecord = Union[AddRecord, DeleteRecord, SealRecord, MergeCommitRecord]


def encode_payload(record: WalRecord) -> bytes:
    """Encode one record's payload (no frame header)."""
    out = io.BytesIO()
    if isinstance(record, AddRecord):
        write_varint(out, _OP_ADD)
        write_varint(out, record.doc_id)
        write_varint(out, len(record.tokens))
        for token in record.tokens:
            write_bytes_field(out, token.encode("utf-8"))
    elif isinstance(record, DeleteRecord):
        write_varint(out, _OP_DELETE)
        write_varint(out, record.doc_id)
    elif isinstance(record, SealRecord):
        write_varint(out, _OP_SEAL)
        write_varint(out, record.segment_id)
    elif isinstance(record, MergeCommitRecord):
        write_varint(out, _OP_MERGE)
        write_varint(out, record.output_tier)
        write_varint(out, 0 if record.output_id is None else 1)
        write_varint(out, record.output_id or 0)
        write_varint(out, len(record.input_ids))
        for input_id in record.input_ids:
            write_varint(out, input_id)
    else:
        raise InvertedIndexError(f"unknown WAL record {record!r}")
    return out.getvalue()


def decode_payload(payload: bytes) -> WalRecord:
    """Decode one checksum-valid payload back into its record."""
    op, offset = read_varint(payload, 0)
    if op == _OP_ADD:
        doc_id, offset = read_varint(payload, offset)
        num_tokens, offset = read_varint(payload, offset)
        tokens = []
        for _ in range(num_tokens):
            token, offset = read_bytes_field(payload, offset)
            tokens.append(token.decode("utf-8"))
        record: WalRecord = AddRecord(doc_id, tuple(tokens))
    elif op == _OP_DELETE:
        doc_id, offset = read_varint(payload, offset)
        record = DeleteRecord(doc_id)
    elif op == _OP_SEAL:
        segment_id, offset = read_varint(payload, offset)
        record = SealRecord(segment_id)
    elif op == _OP_MERGE:
        output_tier, offset = read_varint(payload, offset)
        has_output, offset = read_varint(payload, offset)
        output_id, offset = read_varint(payload, offset)
        num_inputs, offset = read_varint(payload, offset)
        input_ids = []
        for _ in range(num_inputs):
            input_id, offset = read_varint(payload, offset)
            input_ids.append(input_id)
        record = MergeCommitRecord(
            tuple(input_ids), output_id if has_output else None,
            output_tier,
        )
    else:
        raise InvertedIndexError(f"unknown WAL op type {op}")
    if offset != len(payload):
        raise InvertedIndexError(
            f"{len(payload) - offset} trailing bytes in WAL payload"
        )
    return record


def frame_record(record: WalRecord) -> bytes:
    """The full on-disk frame: header + payload."""
    payload = encode_payload(record)
    return _FRAME_HEADER.pack(len(payload),
                              zlib.crc32(payload)) + payload


@dataclass
class WalScan:
    """Result of scanning a WAL file.

    ``valid_bytes`` is the file offset just past the last valid record
    (recovery truncates the file there); ``torn`` is ``None`` for a
    clean log or the reason scanning stopped early (``"truncated"``,
    ``"corrupted"``).
    """

    records: List[WalRecord]
    valid_bytes: int
    total_bytes: int

    torn: Optional[str] = None

    @property
    def torn_bytes(self) -> int:
        return self.total_bytes - self.valid_bytes


def read_wal(path: Union[str, Path]) -> WalScan:
    """Scan a WAL file up to the last valid record.

    A well-formed prefix followed by arbitrary garbage (a torn append)
    parses to the records of the prefix; only a bad magic raises, since
    that means the file is not a WAL at all.
    """
    data = Path(path).read_bytes()
    if len(data) >= len(WAL_MAGIC) and data[:len(WAL_MAGIC)] != WAL_MAGIC:
        raise InvertedIndexError(f"{path} is not a BOSSWAL1 file")
    if len(data) < len(WAL_MAGIC):
        # A crash while creating the file: nothing was ever logged.
        return WalScan(records=[], valid_bytes=0, total_bytes=len(data),
                       torn="truncated" if data else None)
    records: List[WalRecord] = []
    offset = len(WAL_MAGIC)
    valid = offset
    torn: Optional[str] = None
    while offset < len(data):
        if offset + _FRAME_HEADER.size > len(data):
            torn = "truncated"
            break
        length, crc = _FRAME_HEADER.unpack_from(data, offset)
        start = offset + _FRAME_HEADER.size
        end = start + length
        if end > len(data):
            torn = "truncated"
            break
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            torn = "corrupted"
            break
        try:
            records.append(decode_payload(payload))
        except InvertedIndexError:
            # The checksum matched but the payload does not parse —
            # treat it like any other tail damage and stop here.
            torn = "corrupted"
            break
        offset = end
        valid = end
    return WalScan(records=records, valid_bytes=valid,
                   total_bytes=len(data), torn=torn)


@dataclass(frozen=True)
class WalAppend:
    """One WAL frame durably appended, or re-charged during recovery
    replay (observer event)."""

    kind: str
    nbytes: int

    def publish_metrics(self, registry) -> None:
        registry.counter(
            "live.wal.records", "WAL frames appended, by record kind"
        ).inc(kind=self.kind)
        registry.counter(
            "live.wal.bytes", "sequential ST Index bytes from WAL frames"
        ).inc(self.nbytes)


class WriteAheadLog:
    """The append side: one open file, flushed (optionally fsynced)
    per record, with every frame charged as sequential ``ST Index``
    traffic and reported to the observer.

    ``records_logged`` / ``bytes_logged`` count *durable* frames —
    recovery seeds them with the surviving log's totals so manifest
    versions and conservation identities continue seamlessly.
    """

    def __init__(self, path: Union[str, Path], traffic=None,
                 observer: Observer = NULL_OBSERVER, crash=None,
                 fsync: bool = False,
                 _existing: Optional[Tuple[int, int]] = None) -> None:
        from repro.scm.traffic import TrafficCounter

        self.path = Path(path)
        self.traffic = TrafficCounter() if traffic is None else traffic
        self._observer = observer
        self._crash = crash
        self._fsync = fsync
        if _existing is None:
            if self.path.exists() and self.path.stat().st_size > 0:
                raise InvertedIndexError(
                    f"{self.path} already holds a WAL — recover it "
                    f"instead of opening a fresh writer over it"
                )
            self.records_logged = 0
            self.bytes_logged = 0
            self._handle: BinaryIO = open(self.path, "wb")
            self._handle.write(WAL_MAGIC)
            self._flush()
        else:
            self.records_logged, self.bytes_logged = _existing
            self._handle = open(self.path, "ab")

    def _flush(self) -> None:
        self._handle.flush()
        if self._fsync:
            os.fsync(self._handle.fileno())

    def append(self, record: WalRecord) -> int:
        """Durably append one record; returns the frame size in bytes.

        The armed ``mid_wal_append`` kill-point fires *during* the
        write: a deterministic prefix (or corrupted copy) of the frame
        reaches the file, then :class:`~repro.errors.CrashError`
        unwinds — exactly the torn tail :func:`read_wal` must detect.
        """
        frame = frame_record(record)
        if self._crash is not None:
            mangled = self._crash.wal_tear(frame)
            if mangled is not None:
                self._handle.write(mangled)
                self._flush()
                self._crash.die("mid_wal_append")
        self._handle.write(frame)
        self._flush()
        self.records_logged += 1
        self.bytes_logged += len(frame)
        self.charge(record, len(frame))
        return len(frame)

    def charge(self, record: WalRecord, nbytes: int) -> None:
        """Meter one frame (shared by append and recovery replay)."""
        from repro.scm.traffic import AccessClass, AccessPattern

        self.traffic.record(AccessClass.ST_INDEX,
                            AccessPattern.SEQUENTIAL, nbytes)
        if self._observer.enabled:
            self._observer.emit(WalAppend(record.kind, nbytes))

    def close(self) -> None:
        if not self._handle.closed:
            self._flush()
            self._handle.close()
