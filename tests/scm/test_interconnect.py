"""Unit tests for the shared host interconnect model."""

import pytest

from repro.errors import ConfigurationError
from repro.scm.device import GB
from repro.scm.interconnect import CXL_LINK, InterconnectModel


class TestCXLPreset:
    def test_paper_bandwidth(self):
        """Section II-C: 64 GB/s for a single CXL link."""
        assert CXL_LINK.bandwidth == 64 * GB


class TestTransfer:
    def test_transfer_time(self):
        link = InterconnectModel("l", bandwidth=1000.0)
        assert link.transfer_time(500) == pytest.approx(0.5)

    def test_zero_bytes_free(self):
        assert CXL_LINK.transfer_time(0) == 0.0

    def test_negative_bytes_rejected(self):
        with pytest.raises(ConfigurationError):
            CXL_LINK.transfer_time(-1)

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError):
            InterconnectModel("bad", bandwidth=0)
