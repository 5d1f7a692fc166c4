"""Unit tests for DRAM timing/organization parameter sets."""

import dataclasses

import pytest

from repro.dram.timing import DRAMTiming, gddr5_timing, stacked_timing


def capacity(t: DRAMTiming) -> int:
    """Bytes the timing geometry addresses."""
    return (t.channels * t.banks_per_channel * t.rows_per_bank
            * t.columns_per_row * t.block_bytes)


class TestGDDR5:
    def setup_method(self):
        self.t = gddr5_timing()

    def test_table1_geometry(self):
        assert self.t.channels == 4
        assert self.t.banks_per_channel == 16
        assert self.t.rows_per_bank == 4096
        assert self.t.columns_per_row == 64

    def test_table1_timing(self):
        assert (self.t.cl, self.t.t_rcd, self.t.t_rp) == (12, 12, 12)

    def test_capacity_is_1gb(self):
        assert capacity(self.t) == 1 << 30

    def test_peak_bandwidth_matches_paper(self):
        assert self.t.peak_bandwidth_gbs == pytest.approx(118.3, abs=0.3)

    def test_row_cycle(self):
        assert self.t.row_cycle == self.t.t_ras + self.t.t_rp

    def test_row_miss_penalty(self):
        assert self.t.row_miss_penalty() == 24

    def test_total_banks(self):
        assert self.t.total_banks == 64


class TestStacked:
    def setup_method(self):
        self.t = stacked_timing()

    def test_64_vault_channels(self):
        assert self.t.channels == 64

    def test_peak_bandwidth_640gbs(self):
        assert self.t.peak_bandwidth_gbs == pytest.approx(640, rel=0.01)

    def test_capacity_matches_stacked_map(self):
        from repro.core.address_map import stacked_memory_map

        assert capacity(self.t) == stacked_memory_map().capacity


class TestValidation:
    def test_negative_channels(self):
        with pytest.raises(ValueError):
            DRAMTiming("x", 100, channels=0, banks_per_channel=1,
                       rows_per_bank=1, columns_per_row=1)

    def test_tras_below_trcd(self):
        with pytest.raises(ValueError, match="t_RAS"):
            DRAMTiming("x", 100, channels=1, banks_per_channel=1,
                       rows_per_bank=1, columns_per_row=1, t_rcd=20, t_ras=10)

    @pytest.mark.parametrize("field", ["cl", "t_rcd", "t_rp", "t_ras",
                                       "t_ccd", "t_rrd"])
    def test_negative_latency_rejected(self, field):
        """A negative latency used to surface mid-run as an event in the
        past (``cl``) or to finish with meaningless timing (``t_ccd``,
        ``t_rp``); it is rejected up front, naming the field."""
        with pytest.raises(ValueError, match=f"{field} must be non-negative"):
            dataclasses.replace(gddr5_timing(), **{field: -3})

    @pytest.mark.parametrize("field", ["cl", "t_rp", "t_ccd", "t_rrd"])
    def test_zero_latency_stays_legal(self, field):
        assert getattr(dataclasses.replace(gddr5_timing(), **{field: 0}),
                       field) == 0
