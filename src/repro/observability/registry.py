"""Metrics registry: counters, gauges, and explicit-bucket histograms.

The registry is the sink every instrumented component publishes into —
the accelerator, the decompression modules, the SCM pool/interconnect
models, the cluster root, and the DRAM block cache. Unlike typical
metrics libraries there is **no wall-clock dependence anywhere**: every
time-valued observation is the simulator's *modeled* time, so metric
values are deterministic for a given workload and the test suite can
assert on them exactly.

Metrics are named with dotted paths (``scm.bytes_total``) and may carry
labels (``cls="LD List"``, ``pattern="sequential"``). A metric name maps
to exactly one metric type; re-requesting an existing name returns the
same instrument (and raises if the type or bucket layout disagrees).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

#: Explicit modeled-latency histogram buckets, in microseconds — the one
#: layout every ``*_us`` histogram shares, whichever package publishes it.
LATENCY_BUCKETS_US = (1, 2, 5, 10, 20, 50, 100, 200, 500,
                      1000, 2000, 5000, 10000, 50000)

#: A label set in canonical form: sorted (key, value) pairs.
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing sum, optionally per label set."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1, **labels: str) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name} cannot decrease (inc {amount})"
            )
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: str) -> float:
        """Value for one label set (0 if never incremented)."""
        return self._values.get(_label_key(labels), 0)

    def total(self) -> float:
        """Sum across every label set."""
        return sum(self._values.values())

    def samples(self) -> List[Tuple[LabelKey, float]]:
        return sorted(self._values.items())


class Gauge:
    """Point-in-time value that may move in either direction."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: str) -> None:
        self._values[_label_key(labels)] = value

    def add(self, amount: float, **labels: str) -> None:
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: str) -> float:
        return self._values.get(_label_key(labels), 0)

    def samples(self) -> List[Tuple[LabelKey, float]]:
        return sorted(self._values.items())


class Histogram:
    """Cumulative histogram over explicit, finite bucket bounds.

    ``buckets`` are the inclusive upper bounds of the finite buckets; an
    implicit ``+inf`` bucket catches everything above the last bound.
    Observations are modeled-time quantities (e.g. microseconds of
    simulated latency), never wall-clock readings.
    """

    kind = "histogram"

    def __init__(self, name: str, buckets: Sequence[float],
                 help: str = "") -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ConfigurationError(f"histogram {name} needs buckets")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ConfigurationError(
                f"histogram {name} buckets must be strictly increasing"
            )
        if any(math.isinf(b) for b in bounds):
            raise ConfigurationError(
                f"histogram {name}: +inf bucket is implicit"
            )
        self.name = name
        self.help = help
        self.buckets = bounds
        self._counts: Dict[LabelKey, List[int]] = {}
        self._sums: Dict[LabelKey, float] = {}
        self._totals: Dict[LabelKey, int] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = _label_key(labels)
        counts = self._counts.setdefault(key, [0] * (len(self.buckets) + 1))
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                counts[i] += 1
                break
        else:
            counts[-1] += 1
        self._sums[key] = self._sums.get(key, 0.0) + value
        self._totals[key] = self._totals.get(key, 0) + 1

    def count(self, **labels: str) -> int:
        return self._totals.get(_label_key(labels), 0)

    def sum(self, **labels: str) -> float:
        return self._sums.get(_label_key(labels), 0.0)

    def bucket_counts(self, **labels: str) -> List[int]:
        """Per-bucket (non-cumulative) counts; last entry is +inf."""
        key = _label_key(labels)
        return list(self._counts.get(key, [0] * (len(self.buckets) + 1)))

    def quantile(self, q: float, **labels: str) -> float:
        """Bucket-upper-bound estimate of the ``q`` quantile."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError("quantile must be in [0, 1]")
        total = self.count(**labels)
        if total == 0:
            return 0.0
        rank = q * total
        seen = 0
        for i, count in enumerate(self.bucket_counts(**labels)):
            seen += count
            if seen >= rank and count:
                if i < len(self.buckets):
                    return self.buckets[i]
                return math.inf
        return math.inf

    def samples(self) -> List[Tuple[LabelKey, List[int]]]:
        return sorted((k, list(v)) for k, v in self._counts.items())


class MetricsRegistry:
    """Name-keyed collection of instruments with get-or-create access."""

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, buckets: Sequence[float],
                  help: str = "") -> Histogram:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, Histogram):
                raise ConfigurationError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            if existing.buckets != tuple(float(b) for b in buckets):
                raise ConfigurationError(
                    f"histogram {name!r} re-registered with other buckets"
                )
            return existing
        metric = Histogram(name, buckets, help)
        self._metrics[name] = metric
        return metric

    def _get_or_create(self, cls, name: str, help: str):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ConfigurationError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        metric = cls(name, help)
        self._metrics[name] = metric
        return metric

    def get(self, name: str) -> Optional[object]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __iter__(self) -> Iterable[object]:
        return iter(self._metrics[n] for n in self.names())

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, dict]:
        """JSON-safe dump of every metric's current samples."""
        out: Dict[str, dict] = {}
        for name in self.names():
            metric = self._metrics[name]
            entry: dict = {"kind": metric.kind, "help": metric.help}
            if isinstance(metric, Histogram):
                entry["buckets"] = list(metric.buckets)
                entry["samples"] = [
                    {
                        "labels": dict(key),
                        "counts": counts,
                        "count": metric.count(**dict(key)),
                        "sum": metric.sum(**dict(key)),
                    }
                    for key, counts in metric.samples()
                ]
            else:
                entry["samples"] = [
                    {"labels": dict(key), "value": value}
                    for key, value in metric.samples()
                ]
            out[name] = entry
        return out

    def render(self) -> str:
        """Human-readable text dump (one line per sample)."""
        lines: List[str] = []
        for name in self.names():
            metric = self._metrics[name]
            lines.append(f"# {name} ({metric.kind})"
                         + (f" — {metric.help}" if metric.help else ""))
            if isinstance(metric, Histogram):
                for key, _counts in metric.samples():
                    labels = _format_labels(key)
                    lines.append(
                        f"{name}{labels} count={metric.count(**dict(key))} "
                        f"sum={metric.sum(**dict(key)):.6g} "
                        f"p50<={metric.quantile(0.5, **dict(key)):.6g} "
                        f"p99<={metric.quantile(0.99, **dict(key)):.6g}"
                    )
            else:
                for key, value in metric.samples():
                    lines.append(f"{name}{_format_labels(key)} {value:.6g}")
        return "\n".join(lines)


def _format_labels(key: LabelKey) -> str:
    if not key:
        return ""
    return "{" + ", ".join(f"{k}={v}" for k, v in key) + "}"
