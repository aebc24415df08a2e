"""Synthetic integer streams for the compression study (Figure 3).

The paper builds seven synthetic 10M-integer streams to show that the
best compression scheme depends on the d-gap distribution:

* ``uniform sparse`` — docIDs drawn uniformly from ``[0, 2^28)``;
* ``uniform dense`` — docIDs drawn uniformly from ``[0, 2^26)``;
* ``cluster`` — uniform picks inside randomly placed clusters;
* ``outlier 10%`` / ``outlier 30%`` — d-gaps from ``N(2^5, 20)`` with
  the given fraction of large outliers;
* ``zipf`` — d-gaps following Zipf's law.

Generators return *d-gap streams* (what the codecs actually compress);
stream length is a parameter because compression ratio is
length-invariant — benchmarks default to a laptop-friendly size.
"""

from __future__ import annotations

from typing import Callable, Dict, List

import numpy as np

from repro.errors import ConfigurationError

#: The cluster stream: this many clusters of ``CLUSTER_SPAN`` docIDs,
#: placed uniformly in the sparse stream's ``[0, 2^28)`` space.
NUM_CLUSTERS = 1000
CLUSTER_SPAN = 1 << 14
CLUSTER_ID_BITS = 28

#: The outlier streams: d-gaps from ``N(2^5, 20)``; an outlier is drawn
#: uniformly from ``[2^12, 2^OUTLIER_BITS)``.
OUTLIER_MEAN = 32.0
OUTLIER_STD = 20.0
OUTLIER_BITS = 20


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _gaps_from_sorted_unique(doc_ids: np.ndarray) -> List[int]:
    """d-gaps (``gap - 1`` convention) of a sorted unique docID array."""
    gaps = np.diff(doc_ids, prepend=-1) - 1
    return [int(g) for g in gaps]


def uniform_stream(count: int, id_bits: int, seed: int = 0) -> List[int]:
    """Uniformly picked docIDs over ``[0, 2**id_bits)``, as d-gaps.

    ``id_bits=28`` gives the paper's *sparse* stream; ``id_bits=26`` the
    *dense* one.
    """
    if count <= 0:
        raise ConfigurationError("stream count must be positive")
    space = 1 << id_bits
    if count > space:
        raise ConfigurationError(
            f"cannot draw {count} unique ids from {space}"
        )
    rng = _rng(seed)
    # Oversample then unique: cheap and exact for our densities.
    picks = rng.integers(0, space, size=int(count * 1.3) + 16)
    unique = np.unique(picks)
    while len(unique) < count:
        more = rng.integers(0, space, size=count)
        unique = np.unique(np.concatenate([unique, more]))
    chosen = np.sort(rng.choice(unique, size=count, replace=False))
    return _gaps_from_sorted_unique(chosen)


def cluster_stream(count: int, seed: int = 0) -> List[int]:
    """Uniform picks from randomly chosen clusters, as d-gaps.

    Clusters make runs of tiny gaps separated by huge jumps — the regime
    where patched schemes (OptPFD) shine.
    """
    rng = _rng(seed)
    space = 1 << CLUSTER_ID_BITS
    centers = rng.integers(0, max(1, space - CLUSTER_SPAN),
                           size=NUM_CLUSTERS)
    per_cluster = max(1, count // NUM_CLUSTERS)
    ids = []
    for center in centers:
        ids.append(center + rng.integers(0, CLUSTER_SPAN, size=per_cluster))
    all_ids = np.unique(np.concatenate(ids))
    if len(all_ids) > count:
        all_ids = np.sort(_rng(seed + 1).choice(all_ids, size=count,
                                                replace=False))
    return _gaps_from_sorted_unique(all_ids)


def outlier_stream(count: int, outlier_fraction: float,
                   seed: int = 0) -> List[int]:
    """d-gaps from ``N(OUTLIER_MEAN, OUTLIER_STD)`` with a fraction of
    large outliers.

    Matches the paper's "normal distribution with a mean of 2^5 and a
    standard deviation of 20 but with 10% and 30% of outlier values".
    """
    if not 0.0 <= outlier_fraction <= 1.0:
        raise ConfigurationError("outlier fraction must be in [0, 1]")
    rng = _rng(seed)
    gaps = np.abs(rng.normal(OUTLIER_MEAN, OUTLIER_STD,
                             size=count)).astype(np.int64)
    outliers = rng.random(count) < outlier_fraction
    gaps[outliers] = rng.integers(1 << 12, 1 << OUTLIER_BITS,
                                  size=int(outliers.sum()))
    return [int(g) for g in gaps]


def zipf_stream(count: int, exponent: float = 1.5,
                seed: int = 0) -> List[int]:
    """d-gaps following Zipf's law (heavy-tailed small values)."""
    if exponent <= 1.0:
        raise ConfigurationError("zipf exponent must exceed 1")
    rng = _rng(seed)
    gaps = rng.zipf(exponent, size=count) - 1  # shift so 0 is possible
    return [int(min(g, (1 << 27) - 1)) for g in gaps]


#: The paper's seven Figure 3 streams, name -> generator(count, seed).
SYNTHETIC_STREAMS: Dict[str, Callable[[int, int], List[int]]] = {
    "uniform-sparse": lambda n, s=0: uniform_stream(n, id_bits=28, seed=s),
    "uniform-dense": lambda n, s=0: uniform_stream(n, id_bits=26, seed=s),
    "cluster": lambda n, s=0: cluster_stream(n, seed=s),
    "outlier-10": lambda n, s=0: outlier_stream(n, 0.10, seed=s),
    "outlier-30": lambda n, s=0: outlier_stream(n, 0.30, seed=s),
    "zipf": lambda n, s=0: zipf_stream(n, seed=s),
    "zipf-steep": lambda n, s=0: zipf_stream(n, exponent=2.0, seed=s),
}
