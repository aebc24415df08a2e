"""The measurement method, identical on every commit.

Two kinds of time are kept apart everywhere in this harness:

* **host** time — seconds this Python simulator burns. Noisy: the
  dominant noise on a small shared box is slow drift in machine speed,
  so a fixed calibration kernel is timed next to everything that is
  measured and host times are *speed-normalised* by it;
* **modeled** time — seconds the simulated BOSS device would take. A
  pure function of the generated inputs, so it repeats exactly.

This module owns the host side: the calibration kernel, the pass loop,
the order statistics and the environment fingerprint. It imports
nothing from ``repro``.
"""

from __future__ import annotations

import gc
import os
import platform
import random
import resource
import statistics
import sys
from array import array
from bisect import bisect_left, insort
from time import perf_counter
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

import numpy as np

#: Calibration-kernel time on the quiet authoring box. Host times are
#: reported as if the kernel took exactly this long, so the constant
#: only fixes the scale of ``host_qps``/``setup_s``; it never changes
#: how two runs compare. Pinned: re-measuring it would rescale history.
KERNEL_REF_S = 0.0110

#: A run never reports a median over fewer host passes than this.
MIN_PASSES = 15


class _Hit:
    __slots__ = ("doc", "score")

    def __init__(self, doc: int, score: float) -> None:
        self.doc = doc
        self.score = score


def _kernel_inputs():
    """Fixed posting-like lists the kernel walks (built at import)."""
    rng = random.Random(0xB055)
    lists = []
    for i in range(48):
        docs = sorted(rng.sample(range(200_000), rng.randrange(400, 4000)))
        lists.append((f"term{i:04d}", array("I", docs),
                      array("I", [rng.randrange(1, 9) for _ in docs])))
    norms = np.asarray([rng.random() + 0.5 for _ in range(200_000)])
    return lists, norms


_LISTS, _NORMS = _kernel_inputs()
_PAIRS = [(i, (i * 7 + 3) % 48) for i in range(6)]


def calibration_kernel() -> float:
    """Time a fixed piece of search-shaped work; no ``repro`` code.

    About 11 ms: a scored two-list union with a top-10 kept by
    ``insort``, a galloping ``bisect`` intersection building small
    objects, a keyed sort, string and dict traffic, and small-array
    numpy gathers — the interpreter paths the executors, cursors and
    columnar kernels are made of. Its only job is to witness how fast
    the machine is right now; a tight two-line loop was tried first
    and slowed a third less than the workloads did when a neighbour
    took the other core, so it under-corrected.
    """
    start = perf_counter()
    stats = {}
    for a, b in _PAIRS:
        term_a, docs_a, tfs_a = _LISTS[a]
        term_b, docs_b, tfs_b = _LISTS[b]
        top: list = []
        i = j = 0
        len_a, len_b = len(docs_a), len(docs_b)
        while i < len_a and j < len_b:
            x, y = docs_a[i], docs_b[j]
            if x == y:
                score = (tfs_a[i] * 1.2 / (tfs_a[i] + 0.9)
                         + tfs_b[j] * 1.2 / (tfs_b[j] + 0.9))
                doc = x
                i += 1
                j += 1
            elif x < y:
                score = tfs_a[i] * 1.2 / (tfs_a[i] + 0.9)
                doc = x
                i += 1
            else:
                score = tfs_b[j] * 1.2 / (tfs_b[j] + 0.9)
                doc = y
                j += 1
            if len(top) < 10:
                insort(top, (score, -doc))
            elif score > top[0][0]:
                top.pop(0)
                insort(top, (score, -doc))
        hits = []
        position = 0
        for x in docs_a[::3]:
            position = bisect_left(docs_b, x, position)
            if position >= len_b:
                break
            if docs_b[position] == x:
                hits.append(_Hit(x, float(x % 97)))
        hits.sort(key=lambda hit: (-hit.score, hit.doc))
        stats[term_a + "|" + term_b] = (
            len(hits), [(-d, round(s, 3)) for s, d in reversed(top)])
        ids = np.frombuffer(docs_a, dtype=np.uint32)[:512]
        stats[term_b] = float((_NORMS[ids] * 1.5).sum())
    if not stats:  # keeps the loop's results live
        raise AssertionError("unreachable")
    return perf_counter() - start


class HostSample(NamedTuple):
    """One timed region with the kernel times that bracket it."""

    raw_s: float
    kernel_before_s: float
    kernel_after_s: float

    @property
    def normalised_s(self) -> float:
        """``raw_s`` rescaled to the reference machine speed."""
        bracket = (self.kernel_before_s + self.kernel_after_s) / 2.0
        return self.raw_s * KERNEL_REF_S / bracket


def timed(region: Callable[[], object]):
    """Run ``region`` once between two kernel timings."""
    before = calibration_kernel()
    start = perf_counter()
    value = region()
    raw = perf_counter() - start
    return value, HostSample(raw, before, calibration_kernel())


def host_phase(run_pass: Callable[[object], None], seconds: float,
               prepare: Optional[Callable[[], object]] = None,
               min_passes: int = MIN_PASSES) -> List[HostSample]:
    """Time identical passes for ``seconds`` (at least ``min_passes``).

    ``prepare`` builds what a pass consumes (a fresh session, a fresh
    writer); it runs outside the timed region. The heap is collected
    and frozen first so the cyclic collector does not walk the corpus
    in the middle of a pass.
    """
    gc.collect()
    gc.freeze()
    samples: List[HostSample] = []
    try:
        deadline = perf_counter() + seconds
        after = calibration_kernel()
        while len(samples) < min_passes or perf_counter() < deadline:
            if prepare is None:
                context, before = None, after
            else:
                context, before = prepare(), calibration_kernel()
            start = perf_counter()
            run_pass(context)
            raw = perf_counter() - start
            after = calibration_kernel()
            samples.append(HostSample(raw, before, after))
    finally:
        gc.unfreeze()
    return samples


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        only = float(values[0])
        return {"n": len(values), "q1": only, "median": only, "q3": only}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": median, "q3": q3}


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    stats = quartiles(values)
    return (stats["q3"] - stats["q1"]) / stats["median"]


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    n = len(sorted_values)
    index = max(0, min(n - 1, int(q * n + 0.999999) - 1))
    return sorted_values[index]


def host_summary(samples: Sequence[HostSample], ops: int) -> dict:
    """Everything a result file keeps about one host phase."""
    raw_rates = [ops / s.raw_s for s in samples]
    norm_rates = [ops / s.normalised_s for s in samples]
    return {
        "passes": len(samples),
        "ops_per_pass": ops,
        "qps_normalised": quartiles(norm_rates),
        "qps_raw": quartiles(raw_rates),
        "per_pass": [
            {"raw_s": s.raw_s, "normalised_s": s.normalised_s,
             "kernel_before_s": s.kernel_before_s,
             "kernel_after_s": s.kernel_after_s}
            for s in samples
        ],
    }


def peak_rss_mb() -> float:
    """High-water resident set of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit(root: str) -> str:
    """Commit of ``root`` read from ``.git`` (no subprocess; the
    driver's checkout is not a repository, which reads as unknown)."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(root, ".git", ref[5:])) as handle:
            return handle.read().strip()
    except OSError:
        return "unknown"


def fingerprint(root: str, seed: int) -> dict:
    """Where and on what a result was measured."""
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(root),
        "seed": seed,
        "kernel_ref_s": KERNEL_REF_S,
    }
