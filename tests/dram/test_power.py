"""Unit tests for the Micron-style DRAM power model."""

import pytest

from repro.dram.power import DRAMPowerBreakdown, DRAMPowerModel, DRAMPowerParams, gddr5_power_params
from repro.dram.timing import gddr5_timing

T = gddr5_timing()


class TestParams:
    def test_defaults_valid(self):
        gddr5_power_params()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            DRAMPowerParams(activate_energy_nj=-1)


class TestBreakdown:
    def test_total_is_sum(self):
        b = DRAMPowerBreakdown(1.0, 0.5, 2.0, 3.0, 4.0)
        assert b.total == pytest.approx(10.5)
        assert b.as_dict()["total"] == pytest.approx(10.5)

    def test_str_mentions_watts(self):
        assert "W" in str(DRAMPowerBreakdown(1, 1, 1, 1, 1))


class TestModel:
    def setup_method(self):
        self.params = DRAMPowerParams(
            background_watts_per_channel=2.0,
            refresh_watts_per_channel=0.5,
            activate_energy_nj=10.0,
            read_energy_nj=1.0,
            write_energy_nj=2.0,
        )
        self.model = DRAMPowerModel(T, self.params)

    def test_background_scales_with_channels(self):
        b = self.model.breakdown_from_counts(1000, 0, 0, 0, channels=4)
        assert b.background == pytest.approx(8.0)
        assert b.refresh == pytest.approx(2.0)

    def test_activate_power_proportional_to_count(self):
        cycles = int(T.clock_mhz * 1e6)  # exactly one second
        one = self.model.breakdown_from_counts(cycles, 10**6, 0, 0, 1)
        two = self.model.breakdown_from_counts(cycles, 2 * 10**6, 0, 0, 1)
        assert two.activate == pytest.approx(2 * one.activate)
        # 1e6 activates/s * 10 nJ = 10 mW
        assert one.activate == pytest.approx(0.01)

    def test_read_write_energy(self):
        cycles = int(T.clock_mhz * 1e6)
        b = self.model.breakdown_from_counts(cycles, 0, 10**9, 10**9, 1)
        assert b.read == pytest.approx(1.0)
        assert b.write == pytest.approx(2.0)

    def test_shorter_run_higher_power(self):
        """Same event counts over half the time = double the power."""
        slow = self.model.breakdown_from_counts(2000, 100, 100, 100, 1)
        fast = self.model.breakdown_from_counts(1000, 100, 100, 100, 1)
        assert fast.activate == pytest.approx(2 * slow.activate)

    def test_zero_elapsed_rejected(self):
        with pytest.raises(ValueError):
            self.model.breakdown_from_counts(0, 0, 0, 0, 1)

    def test_breakdown_from_controllers(self):
        from repro.dram.controller import MemoryController
        from repro.dram.scheduler import DRAMRequest
        from repro.sim.engine import Engine

        engine = Engine()
        mcs = [MemoryController(engine, T, i) for i in range(2)]
        mcs[0].submit_many([DRAMRequest(0, bank=0, row=1, is_write=False, arrival=0)])
        mcs[1].submit_many([DRAMRequest(1, bank=0, row=1, is_write=True, arrival=0)])
        engine.run()
        b = self.model.breakdown(mcs, elapsed_cycles=engine.now)
        assert b.background == pytest.approx(4.0)
        assert b.activate > 0
        assert b.read > 0 and b.write > 0
