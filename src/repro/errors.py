"""Exception hierarchy for the BOSS reproduction library.

Every error raised by ``repro`` derives from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still
distinguishing the failure domain (compression, query parsing, simulation
configuration, ...) when they need to.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""

    def __reduce__(self):
        # An exception pickles its args and attributes but not its
        # chained cause; keep it, so an error that crosses a process
        # boundary (:mod:`repro.batch`) still names what caused it.
        state = dict(self.__dict__)
        if self.__cause__ is not None:
            state["__cause__"] = self.__cause__
        return type(self), self.args, state


class CompressionError(ReproError):
    """A codec could not encode or decode a block of integers."""


class DecompressorProgramError(ReproError):
    """A decompression-module configuration program is malformed."""


class IndexError_(ReproError):
    """An inverted index is malformed or an operation on it is invalid.

    Named with a trailing underscore to avoid shadowing the builtin
    ``IndexError``; exported as ``InvertedIndexError`` from the package root.
    """


class QueryError(ReproError):
    """A query expression could not be parsed or is unsupported."""


class ConfigurationError(ReproError):
    """A simulator or device configuration is inconsistent."""


class SimulationError(ReproError):
    """The performance model reached an inconsistent state."""


class FaultInjectionError(ReproError):
    """A deterministic injected leaf fault (transient or permanent).

    Raised only by :mod:`repro.faults` wrappers, never by real execution
    paths — catching it distinguishes injected failures from genuine
    bugs in fault-tolerance tests. ``kind`` is ``"transient"`` or
    ``"permanent"``.
    """

    def __init__(self, message: str, kind: str = "transient") -> None:
        super().__init__(message)
        self.kind = kind


class CrashError(ReproError):
    """A deterministic injected process death (durability testing).

    Raised only by :class:`repro.faults.CrashSchedule` at a named
    kill-point — never by real execution paths. The writer that raised
    it must be abandoned: its in-memory state is "lost", and the test
    recovers a fresh writer from the on-disk WAL + manifest. ``kill_point``
    names the boundary (see :data:`repro.faults.KILL_POINTS`) and
    ``occurrence`` is which hit of that boundary fired.
    """

    def __init__(self, message: str, kill_point: str = "",
                 occurrence: int = 0) -> None:
        super().__init__(message)
        self.kill_point = kill_point
        self.occurrence = occurrence


class LeafExecutionError(ReproError):
    """A cluster leaf failed (or exhausted its retry/failover budget).

    Names the failing ``(query, shard)`` so a batch abort is actionable;
    the original leaf exception is chained as ``__cause__``.
    """

    def __init__(self, message: str, shard_index: int = -1,
                 expression: str = "") -> None:
        super().__init__(message)
        self.shard_index = shard_index
        self.expression = expression


class BatchWorkerError(ReproError):
    """A forked batch worker (:mod:`repro.batch`) died without
    reporting its whole share of the batch, or a query outcome of its
    share could not be sent back. The message names the share.
    """


class RebalanceError(ReproError):
    """A shard rebalance move could not be planned, validated, or
    published (invalid plan, conservation-identity violation, or a
    bootstrap replica failing parity with its primary). A move that
    raises this never published: the old shard map keeps serving.
    """


# Public alias: the name users should import.
InvertedIndexError = IndexError_
