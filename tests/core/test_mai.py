"""Tests for the Memory Access Interface / TLB model."""

import pytest

from repro.core.mai import TLB_ENTRIES, MemoryAccessInterface
from repro.errors import ConfigurationError, SimulationError

GB = 1 << 30
TB = 1 << 40


class TestConfiguration:
    def test_paper_sizing_covers_node_capacity(self):
        """1K entries of 2GB pages cover the 2TB node (Section IV-D)."""
        mai = MemoryAccessInterface()
        assert mai.page_size == 2 * GB
        assert mai.coverage == 2 * TB


class TestTranslation:
    def test_identity_mapping(self):
        mai = MemoryAccessInterface()
        mai.map_range(0, 0, 8 * GB)
        assert mai.translate(5 * GB + 123) == 5 * GB + 123

    def test_offset_mapping(self):
        mai = MemoryAccessInterface()
        mai.map_range(0, 16 * GB, 4 * GB)
        assert mai.translate(2 * GB + 7) == 18 * GB + 7

    def test_unmapped_address_raises(self):
        mai = MemoryAccessInterface()
        mai.map_range(0, 0, 2 * GB)
        with pytest.raises(SimulationError):
            mai.translate(100 * GB)

    def test_negative_address_raises(self):
        mai = MemoryAccessInterface()
        with pytest.raises(SimulationError):
            mai.translate(-1)

    def test_unaligned_mapping_rejected(self):
        mai = MemoryAccessInterface()
        with pytest.raises(ConfigurationError):
            mai.map_range(100, 0, 2 * GB)


class TestTLBBehavior:
    def test_no_misses_in_steady_state(self):
        """The paper's claim: sized right, misses only warm the TLB."""
        mai = MemoryAccessInterface()
        mai.map_range(0, 0, 64 * GB)
        # Touch every page once (cold), then sweep again (all hits).
        for page in range(32):
            mai.translate(page * 2 * GB)
        cold_misses = mai.stats.misses
        for page in range(32):
            mai.translate(page * 2 * GB + 1)
        assert mai.stats.misses == cold_misses == 32
        assert mai.stats.hits == 32
        assert mai.stats.hit_rate == 0.5

    def test_undersized_tlb_thrashes(self):
        """A mapping past the TLB's 2 TB coverage evicts."""
        pages = TLB_ENTRIES + 2
        mai = MemoryAccessInterface()
        mai.map_range(0, 0, pages * 2 * GB)
        for _ in range(3):
            for page in range(pages):  # working set > TLB entries
                mai.translate(page * 2 * GB)
        assert mai.stats.misses > pages

    def test_hit_rate_empty(self):
        assert MemoryAccessInterface().stats.hit_rate == 1.0
