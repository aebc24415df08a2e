"""Memory-traffic accounting by access class and access pattern.

Figure 15 of the paper breaks memory accesses into five classes:

* ``LD List`` — loads of posting-list blocks and their metadata;
* ``LD Score`` — loads of per-document scoring metadata (the 4-byte BM25
  normalizers);
* ``LD Inter`` — reloads of spilled intermediate results (IIU's multi-term
  path; BOSS eliminates these);
* ``ST Inter`` — spills of intermediate results;
* ``ST Result`` — stores of the final (or, for IIU, full unsorted) result
  list.

Orthogonally, every access is *sequential* or *random* — the distinction
that dominates SCM performance (Table I: 25.6 GB/s vs 6.6 GB/s read).
:class:`TrafficCounter` accumulates bytes along both axes; the timing
model charges each bucket at the right bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Tuple


class AccessClass(Enum):
    """Figure 15's five memory-access categories, plus index maintenance.

    ``ST_INDEX`` is not part of Figure 15 (which profiles read-only
    query execution): it accounts for the sequential stores issued when
    the live-index layer (:mod:`repro.live`) seals a write buffer or a
    background merge writes a compacted segment — the write half of the
    Table I bandwidth asymmetry.
    """

    LD_LIST = "LD List"
    LD_SCORE = "LD Score"
    LD_INTER = "LD Inter"
    ST_INTER = "ST Inter"
    ST_RESULT = "ST Result"
    ST_INDEX = "ST Index"

    # Members are singletons compared by identity, so the C-level
    # identity hash is equivalent to ``Enum.__hash__`` (a Python-level
    # ``hash(self._name_)``) — and :meth:`TrafficCounter.record` hashes
    # a member pair on every call.
    __hash__ = object.__hash__

    @property
    def is_write(self) -> bool:
        return self in (AccessClass.ST_INTER, AccessClass.ST_RESULT,
                        AccessClass.ST_INDEX)


class AccessPattern(Enum):
    """Spatial locality of an access run."""

    SEQUENTIAL = "sequential"
    RANDOM = "random"

    __hash__ = object.__hash__  # see AccessClass


@dataclass
class TrafficCounter:
    """Byte totals keyed by ``(AccessClass, AccessPattern)``.

    Also counts discrete *accesses* per class, which Figure 15 reports
    (normalized access counts rather than bytes).
    """

    _bytes: Dict[Tuple[AccessClass, AccessPattern], int] = field(
        default_factory=dict
    )
    _accesses: Dict[Tuple[AccessClass, AccessPattern], int] = field(
        default_factory=dict
    )

    def record(self, access_class: AccessClass, pattern: AccessPattern,
               num_bytes: int, accesses: int = 1) -> None:
        """Add ``num_bytes`` of traffic in the given bucket."""
        if num_bytes < 0 or accesses < 0:
            raise ValueError("traffic cannot be negative")
        key = (access_class, pattern)
        self._bytes[key] = self._bytes.get(key, 0) + num_bytes
        self._accesses[key] = self._accesses.get(key, 0) + accesses

    # ------------------------------------------------------------------
    # Aggregations
    # ------------------------------------------------------------------

    def bytes_for(self, access_class: AccessClass = None,
                  pattern: AccessPattern = None) -> int:
        """Total bytes, optionally filtered by class and/or pattern."""
        return sum(
            v for (cls, pat), v in self._bytes.items()
            if (access_class is None or cls is access_class)
            and (pattern is None or pat is pattern)
        )

    def accesses_for(self, access_class: AccessClass = None,
                     pattern: AccessPattern = None) -> int:
        """Total access count, optionally filtered."""
        return sum(
            v for (cls, pat), v in self._accesses.items()
            if (access_class is None or cls is access_class)
            and (pattern is None or pat is pattern)
        )

    @property
    def total_bytes(self) -> int:
        return self.bytes_for()

    @property
    def read_bytes(self) -> int:
        return sum(
            v for (cls, _pat), v in self._bytes.items() if not cls.is_write
        )

    @property
    def write_bytes(self) -> int:
        return sum(
            v for (cls, _pat), v in self._bytes.items() if cls.is_write
        )

    def read_bytes_by_pattern(self, pattern: AccessPattern) -> int:
        """Read bytes with the given spatial pattern."""
        return sum(
            v for (cls, pat), v in self._bytes.items()
            if not cls.is_write and pat is pattern
        )

    def by_class(self) -> Dict[AccessClass, int]:
        """Byte totals per access class (Figure 15's categories)."""
        out: Dict[AccessClass, int] = {}
        for (cls, _pat), v in self._bytes.items():
            out[cls] = out.get(cls, 0) + v
        return out

    def merge(self, other: "TrafficCounter") -> None:
        """Fold another counter into this one."""
        for key, v in other._bytes.items():
            self._bytes[key] = self._bytes.get(key, 0) + v
        for key, v in other._accesses.items():
            self._accesses[key] = self._accesses.get(key, 0) + v

    def copy(self) -> "TrafficCounter":
        counter = TrafficCounter()
        counter.merge(self)
        return counter

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        per_class = {cls.value: v for cls, v in self.by_class().items()}
        return f"<TrafficCounter {per_class}>"
