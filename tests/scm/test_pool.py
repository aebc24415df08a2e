"""Unit tests for the pooled-memory topology."""

import pytest

from repro.errors import ConfigurationError
from repro.scm.device import OPTANE_NODE_4CH
from repro.scm.pool import TB, MemoryNode, MemoryPool


class TestMemoryNode:
    def test_paper_default_node(self):
        """Section IV-D: four 512 GB DIMMs, 2 TB per node."""
        node = MemoryNode()
        assert node.capacity == 2 * TB
        assert node.num_dimms == 4
        assert node.device is OPTANE_NODE_4CH

    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            MemoryNode(capacity=0)

    def test_invalid_dimms(self):
        with pytest.raises(ConfigurationError):
            MemoryNode(num_dimms=0)


class TestMemoryPool:
    def test_capacity_scales_with_nodes(self):
        pool = MemoryPool(nodes=[MemoryNode() for _ in range(4)])
        assert pool.capacity == 8 * TB

    def test_internal_bandwidth_scales_with_nodes(self):
        """The NDP scaling argument: internal bandwidth grows per node."""
        one = MemoryPool(nodes=[MemoryNode()])
        four = MemoryPool(nodes=[MemoryNode() for _ in range(4)])
        assert four.aggregate_internal_bandwidth == (
            4 * one.aggregate_internal_bandwidth
        )

    def test_bandwidth_to_capacity_ratio_falls(self):
        """Section II-C: pooling more nodes shrinks the host-visible
        bandwidth-to-capacity ratio — the problem BOSS sidesteps."""
        one = MemoryPool(nodes=[MemoryNode()])
        eight = MemoryPool(nodes=[MemoryNode() for _ in range(8)])
        assert eight.bandwidth_to_capacity_ratio < one.bandwidth_to_capacity_ratio

    def test_empty_pool_rejected(self):
        with pytest.raises(ConfigurationError):
            MemoryPool(nodes=[])
