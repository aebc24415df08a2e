"""Unit tests for the pooled-memory topology."""

import pytest

from repro.errors import ConfigurationError
from repro.scm.device import OPTANE_NODE_4CH
from repro.scm.pool import NODE_CAPACITY, TB, MemoryPool


class TestMemoryNode:
    def test_paper_default_node(self):
        """Section IV-D: four 512 GB DIMMs, 2 TB per node."""
        assert NODE_CAPACITY == 2 * TB
        pool = MemoryPool()
        assert pool.capacity == 2 * TB
        assert pool.aggregate_internal_bandwidth == OPTANE_NODE_4CH.seq_read_bw


class TestMemoryPool:
    def test_capacity_scales_with_nodes(self):
        pool = MemoryPool(nodes=4)
        assert pool.capacity == 8 * TB

    def test_internal_bandwidth_scales_with_nodes(self):
        """The NDP scaling argument: internal bandwidth grows per node."""
        one = MemoryPool(nodes=1)
        four = MemoryPool(nodes=4)
        assert four.aggregate_internal_bandwidth == (
            4 * one.aggregate_internal_bandwidth
        )

    def test_bandwidth_to_capacity_ratio_falls(self):
        """Section II-C: pooling more nodes shrinks the host-visible
        bandwidth-to-capacity ratio — the problem BOSS sidesteps."""
        one = MemoryPool(nodes=1)
        eight = MemoryPool(nodes=8)
        assert eight.bandwidth_to_capacity_ratio < one.bandwidth_to_capacity_ratio

    def test_empty_pool_rejected(self):
        with pytest.raises(ConfigurationError):
            MemoryPool(nodes=0)
