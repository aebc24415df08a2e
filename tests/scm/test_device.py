"""Unit tests for memory-device bandwidth models and Table I presets."""

import pytest

from repro.errors import ConfigurationError
from repro.scm.device import (
    DDR4_4CH,
    DDR4_6CH,
    GB,
    OPTANE_HOST_6CH,
    OPTANE_NODE_4CH,
    MemoryDeviceModel,
)
from repro.scm.traffic import AccessClass, AccessPattern, TrafficCounter


class TestTableIPresets:
    def test_optane_node_bandwidths(self):
        """Table I: 25.6 GB/s seq read, 6.6 GB/s random; writes at
        [70]'s 2.3 GB/s per DIMM across the node's four DIMMs."""
        assert OPTANE_NODE_4CH.seq_read_bw == 25.6 * GB
        assert OPTANE_NODE_4CH.rand_read_bw == 6.6 * GB
        assert OPTANE_NODE_4CH.write_bw == 4 * 2.3 * GB

    def test_ddr4_4ch_bandwidth(self):
        """Figure 16's DRAM point: DDR4-2666 x 4 channels = 85.2 GB/s."""
        assert DDR4_4CH.seq_read_bw == 85.2 * GB

    def test_host_presets(self):
        assert OPTANE_HOST_6CH.seq_read_bw == 39.6 * GB
        assert DDR4_6CH.seq_read_bw == 140.76 * GB

    def test_scm_random_penalty_exceeds_dram(self):
        scm_penalty = OPTANE_NODE_4CH.seq_read_bw / OPTANE_NODE_4CH.rand_read_bw
        dram_penalty = DDR4_4CH.seq_read_bw / DDR4_4CH.rand_read_bw
        assert scm_penalty > dram_penalty

    def test_scm_write_asymmetry(self):
        """SCM writes are several-fold slower than sequential reads
        (Section II-A); DRAM has no such asymmetry."""
        assert OPTANE_NODE_4CH.write_bw < OPTANE_NODE_4CH.seq_read_bw / 2
        assert DDR4_4CH.write_bw == DDR4_4CH.seq_read_bw


class TestValidation:
    def test_negative_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError):
            MemoryDeviceModel("bad", -1.0, 1.0, 1.0)

    def test_random_faster_than_seq_rejected(self):
        with pytest.raises(ConfigurationError):
            MemoryDeviceModel("bad", 1.0, 2.0, 1.0)

    def test_bad_granule_rejected(self):
        with pytest.raises(ConfigurationError):
            MemoryDeviceModel("bad", 2.0, 1.0, 1.0, access_granule=0)


class TestServiceTime:
    def test_bucketed_service_time(self):
        device = MemoryDeviceModel("d", seq_read_bw=100.0, rand_read_bw=10.0,
                                   write_bw=5.0)
        traffic = TrafficCounter()
        traffic.record(AccessClass.LD_LIST, AccessPattern.SEQUENTIAL, 100)
        traffic.record(AccessClass.LD_SCORE, AccessPattern.RANDOM, 10)
        traffic.record(AccessClass.ST_RESULT, AccessPattern.SEQUENTIAL, 5)
        # 100/100 + 10/10 + 5/5 = 3 seconds.
        assert device.service_time(traffic) == pytest.approx(3.0)

    def test_empty_traffic_is_free(self):
        assert OPTANE_NODE_4CH.service_time(TrafficCounter()) == 0.0

    def test_read_time_pattern_sensitivity(self):
        bytes_ = 1 << 20
        seq = OPTANE_NODE_4CH.read_time(bytes_, AccessPattern.SEQUENTIAL)
        rand = OPTANE_NODE_4CH.read_time(bytes_, AccessPattern.RANDOM)
        assert rand > seq

    def test_round_up(self):
        assert OPTANE_NODE_4CH.round_up(1) == 256
        assert OPTANE_NODE_4CH.round_up(256) == 256
        assert OPTANE_NODE_4CH.round_up(257) == 512
        assert DDR4_4CH.round_up(1) == 64

    def test_write_time(self):
        writes = TrafficCounter()
        writes.record(AccessClass.ST_INTER, AccessPattern.SEQUENTIAL,
                      int(9.2 * GB))
        assert OPTANE_NODE_4CH.service_time(writes) == pytest.approx(1.0)
