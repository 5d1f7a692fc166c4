"""Unit tests for the multi-channel DRAM system and 3D-stacked config."""

import numpy as np
import pytest

from repro.core.address_map import hynix_gddr5_map, stacked_memory_map, toy_map
from repro.core.mapper import dram_channels
from repro.dram.scheduler import DRAMRequest
from repro.dram.stacked import stacked_memory_config
from repro.dram.system import DRAMSystem
from repro.dram.timing import gddr5_timing, stacked_timing
from repro.sim.engine import Engine


class TestConstruction:
    def test_channel_count_must_match_map(self):
        engine = Engine()
        with pytest.raises(ValueError, match="channels"):
            DRAMSystem(engine, stacked_timing(), hynix_gddr5_map())

    def test_gddr5_builds(self):
        system = DRAMSystem(Engine(), gddr5_timing(), hynix_gddr5_map())
        assert system.n_channels == 4

    def test_stacked_builds(self):
        system = DRAMSystem(Engine(), stacked_timing(), stacked_memory_map())
        assert system.n_channels == 64


class TestRouting:
    """Decoded fields name a controller through ``dram_channels``."""

    def test_channel_of_conventional(self):
        fields = {"channel": np.array([3])}
        assert dram_channels(hynix_gddr5_map(), fields).tolist() == [3]

    def test_channel_of_stacked(self):
        fields = {"stack": np.array([2]), "vault": np.array([5])}
        assert dram_channels(stacked_memory_map(), fields).tolist() == [
            2 * 16 + 5
        ]

    def test_submit_routes_to_controller(self):
        engine = Engine()
        system = DRAMSystem(engine, gddr5_timing(), hynix_gddr5_map())
        system.submit_many(
            2, [DRAMRequest(0, bank=1, row=3, is_write=False, arrival=0)]
        )
        engine.run()
        assert system.controllers[2].reads == 1
        assert system.controllers[0].reads == 0


class TestAggregates:
    def test_stats_roll_up(self):
        engine = Engine()
        system = DRAMSystem(engine, gddr5_timing(), hynix_gddr5_map())
        for ch in range(4):
            system.submit_many(ch, [
                DRAMRequest(ch, bank=0, row=1, is_write=False, arrival=0),
                DRAMRequest(10 + ch, bank=0, row=1, is_write=True, arrival=0),
            ])
        engine.run()
        assert system.reads == 4
        assert system.writes == 4
        assert system.accesses == 8
        assert system.activates == 4  # one per channel (same row reused)
        assert system.row_hit_rate() == pytest.approx(0.5)
        assert [c.reads + c.writes for c in system.controllers] == [2, 2, 2, 2]
        assert system.pending == 0

    def test_power_aggregation(self):
        engine = Engine()
        system = DRAMSystem(engine, gddr5_timing(), hynix_gddr5_map())
        system.submit_many(
            0, [DRAMRequest(0, bank=0, row=1, is_write=False, arrival=0)]
        )
        engine.run()
        breakdown = system.power(engine.now)
        assert breakdown.total > 0
        assert breakdown.background > breakdown.read


class TestStackedConfig:
    def test_shape(self):
        address_map = stacked_memory_config().address_map
        stacks = address_map.field("stack").size
        vaults = address_map.field("vault").size
        assert (stacks, vaults, stacks * vaults) == (4, 16, 64)

    def test_map_and_timing_agree(self):
        cfg = stacked_memory_config()
        assert DRAMSystem._expected_channels(cfg.address_map) == cfg.timing.channels

    def test_vault_power_below_gddr5_channel(self):
        cfg = stacked_memory_config()
        from repro.dram.power import gddr5_power_params

        assert (cfg.power_params.background_watts_per_channel
                < gddr5_power_params().background_watts_per_channel)
