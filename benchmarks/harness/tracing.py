"""Host-time spans recorded by the harness around calls into the library.

A span is ``(name, start_ns, end_ns, parent_id, op_id)``. Spans are
recorded only from this directory, around the calls the harness makes
into a layer's public functions; spans inside ``src/`` are a later
change. They are held in memory and written out when the run ends.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover, so self times of a span tree add up to
the root's duration by construction.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, Dict, List, NamedTuple, Optional


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent_id: int  # index into Tracer.spans, -1 for a root
    op_id: int      # operation the span belongs to, -1 for none

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Collects spans; one instance per traced replay."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._op_id = -1

    @contextmanager
    def span(self, name: str, op_id: Optional[int] = None):
        """Record the enclosed region as a child of the open span.

        ``op_id`` names the operation and is inherited by nested spans.
        """
        outer_op = self._op_id
        if op_id is not None:
            self._op_id = op_id
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, 0, 0, parent, self._op_id))
        self._stack.append(index)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent,
                                     self.spans[index].op_id)
            self._op_id = outer_op

    def wrap(self, name: str, function: Callable) -> Callable:
        """A proxy for ``function`` that records every call as a span."""
        def proxy(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)
        return proxy

    # ------------------------------------------------------------------

    def total_s(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(
            s.duration_ns for s in self.spans if s.name == name
        ) / 1e9

    def self_times_s(self) -> Dict[str, float]:
        """Self time per span name (duration minus direct children)."""
        child_ns: Dict[int, int] = defaultdict(int)
        for span in self.spans:
            if span.parent_id >= 0:
                child_ns[span.parent_id] += span.duration_ns
        out: Dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            out[span.name] += (span.duration_ns - child_ns[index]) / 1e9
        return dict(out)

    def root_s(self) -> float:
        """Summed duration of the parentless spans."""
        return sum(
            s.duration_ns for s in self.spans if s.parent_id < 0
        ) / 1e9

    def chrome_events(self, pid: int = 0) -> List[dict]:
        """The spans as Chrome trace-event ``X`` (complete) events."""
        if not self.spans:
            return []
        origin = min(s.start_ns for s in self.spans)
        return [
            {
                "name": s.name, "ph": "X", "pid": pid, "tid": 0,
                "ts": (s.start_ns - origin) / 1e3,
                "dur": s.duration_ns / 1e3,
                "args": {"span_id": i, "parent_id": s.parent_id,
                         "op_id": s.op_id},
            }
            for i, s in enumerate(self.spans)
        ]


@contextmanager
def patched(owner, attribute: str, replacement):
    """Shadow a public method on one instance, restoring it after.

    How the harness puts a timing proxy around a call the library makes
    on the harness's behalf (``BossSession.search`` calling its
    accelerator) without touching ``src/``.
    """
    setattr(owner, attribute, replacement)
    try:
        yield
    finally:
        delattr(owner, attribute)


class NullTracer:
    """The untraced run's stand-in: same calls, nothing recorded."""

    @contextmanager
    def span(self, name: str, op_id: Optional[int] = None):
        yield


NULL_TRACER = NullTracer()
