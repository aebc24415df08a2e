"""Storage-class-memory substrate: devices, traffic accounting, interconnect.

Models the memory system of Figure 2 / Table I in the paper:

* :mod:`repro.scm.device` — bandwidth/latency model of one memory node's
  DIMM set, distinguishing sequential reads, random reads, and writes
  (SCM's defining asymmetries, Section II-A);
* :mod:`repro.scm.traffic` — byte accounting per access class (``LD
  List``, ``LD Score``, ``LD Inter``, ``ST Inter``, ``ST Result`` — the
  categories of Figure 15) and per pattern (sequential/random);
* :mod:`repro.scm.interconnect` — the shared byte-addressable
  cache-coherent link (CXL-like) between the memory pool and the host;
* :mod:`repro.scm.pool` — the pooled-memory topology.
"""

from repro.scm.device import (
    DDR4_4CH,
    OPTANE_NODE_4CH,
    AccessPattern,
    MemoryDeviceModel,
)
from repro.scm.interconnect import CXL_LINK, InterconnectModel
from repro.scm.pool import MemoryPool
from repro.scm.traffic import AccessClass, TrafficCounter

__all__ = [
    "AccessPattern",
    "MemoryDeviceModel",
    "OPTANE_NODE_4CH",
    "DDR4_4CH",
    "AccessClass",
    "TrafficCounter",
    "InterconnectModel",
    "CXL_LINK",
    "MemoryPool",
]
