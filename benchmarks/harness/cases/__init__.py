"""The six workloads, in the order the runner reports them."""

from cases.cluster import ClusterBatch
from cases.engine import Table2MixCold, UnionZipfWarm
from cases.hybrid import HybridRerank
from cases.serving import IngestMixed, ServeOpenLoop

CASES = {
    case.name: case
    for case in (UnionZipfWarm, Table2MixCold, ServeOpenLoop, IngestMixed,
                 ClusterBatch, HybridRerank)
}
