"""Unit tests for the address-space layout allocator."""

import pytest

from repro.errors import ConfigurationError
from repro.index.storage import CAPACITY, AddressSpaceLayout, Region


class TestRegion:
    def test_contains(self):
        region = Region(base=256, size=100)
        assert region.contains(256)
        assert region.contains(355)
        assert not region.contains(356)
        assert not region.contains(255)
        assert region.end == 356


class TestAllocator:
    def test_alignment(self):
        layout = AddressSpaceLayout()
        first = layout.allocate("a", 100)
        second = layout.allocate("b", 10)
        assert first.base == 0
        assert second.base == 256  # rounded up past the 100-byte region

    def test_lookup(self):
        layout = AddressSpaceLayout()
        region = layout.allocate("x", 64)
        assert layout.region("x") == region
        assert layout.find(region.base) == "x"
        assert layout.find(10**15) is None

    def test_duplicate_name_rejected(self):
        layout = AddressSpaceLayout()
        layout.allocate("x", 10)
        with pytest.raises(ConfigurationError):
            layout.allocate("x", 10)

    def test_unknown_region_raises(self):
        with pytest.raises(ConfigurationError):
            AddressSpaceLayout().region("nope")

    def test_capacity_enforced(self):
        layout = AddressSpaceLayout()
        layout.allocate("a", 512)
        with pytest.raises(ConfigurationError):
            layout.allocate("b", CAPACITY)

    def test_negative_size_rejected(self):
        with pytest.raises(ConfigurationError):
            AddressSpaceLayout().allocate("a", -1)

    def test_zero_size_allowed(self):
        region = AddressSpaceLayout().allocate("empty", 0)
        assert region.size == 0

    def test_high_water_mark(self):
        layout = AddressSpaceLayout()
        layout.allocate("a", 10)
        layout.allocate("b", 20)
        assert layout.allocated_bytes == 256 + 20
        assert len(layout) == 2
        assert "a" in layout
