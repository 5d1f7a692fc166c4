"""Unit and behavioural tests for the per-channel memory controller."""

import numpy as np
import pytest

from repro.dram.controller import MemoryController
from repro.dram.scheduler import DRAMRequest, FCFSScheduler
from repro.dram.timing import gddr5_timing
from repro.sim.engine import Engine

T = gddr5_timing()


def build(on_complete=None, **kwargs):
    engine = Engine()
    mc = MemoryController(engine, T, 0, on_complete=on_complete, **kwargs)
    return engine, mc


class TestSingleRequestTiming:
    def test_cold_miss_latency(self):
        done = []
        engine, mc = build(lambda r, t: done.append(t))
        mc.submit_many([DRAMRequest(0, bank=0, row=1, is_write=False, arrival=0)])
        engine.run()
        # activate 0, read at tRCD, data at tRCD+CL .. +tBURST
        assert done == [T.t_rcd + T.cl + T.t_burst]

    def test_row_hits_pipeline_at_burst_rate(self):
        done = []
        engine, mc = build(lambda r, t: done.append(t))
        mc.submit_many([
            DRAMRequest(i, bank=0, row=1, is_write=False, arrival=0)
            for i in range(6)
        ])
        engine.run()
        gaps = np.diff(done)
        # After the opening activate, consecutive hits are tBURST apart.
        assert (gaps == T.t_burst).all()

    def test_conflict_pays_precharge(self):
        done = []
        engine, mc = build(lambda r, t: done.append(t))
        mc.submit_many([DRAMRequest(0, bank=0, row=1, is_write=False, arrival=0)])
        engine.run()
        first = done[-1]
        mc.submit_many([
            DRAMRequest(1, bank=0, row=2, is_write=False, arrival=engine.now)
        ])
        engine.run()
        # Precharge waits out tRAS (from activate at 0), then tRP+tRCD+CL+burst.
        assert done[-1] == T.t_ras + T.t_rp + T.t_rcd + T.cl + T.t_burst


class TestThroughput:
    def _drive(self, rows, banks, n=2000):
        engine, mc = build()
        mc.submit_many([
            DRAMRequest(i, bank=int(banks[i]), row=int(rows[i]),
                        is_write=False, arrival=0)
            for i in range(n)
        ])
        engine.run()
        return n / engine.now, mc

    def test_row_friendly_traffic_saturates_bus(self):
        rng = np.random.default_rng(0)
        rate, _ = self._drive(rng.integers(0, 8, 2000), rng.integers(0, 16, 2000))
        assert rate > 0.9 / T.t_burst

    def test_conflict_traffic_stays_near_bus_rate(self):
        """With 16 banks, even 100%-conflict traffic must not collapse
        far below the bus rate (the paper's FAE/ALL stay fast)."""
        rng = np.random.default_rng(1)
        rate, mc = self._drive(rng.integers(0, 4096, 2000), rng.integers(0, 16, 2000))
        assert mc.row_hit_rate() < 0.1
        assert rate > 0.8 / T.t_burst

    def test_single_bank_conflicts_are_slow(self):
        """All-unique rows on ONE bank serialize at the row-cycle rate."""
        rows = np.arange(2000)  # every row distinct: FR-FCFS finds no hits
        rate, _ = self._drive(rows, np.zeros(2000, dtype=int))
        assert rate < 1.2 / (T.t_ras + T.t_rp)


class TestAccounting:
    def test_reads_writes_counted(self):
        engine, mc = build()
        mc.submit_many([
            DRAMRequest(0, bank=0, row=1, is_write=False, arrival=0),
            DRAMRequest(1, bank=1, row=1, is_write=True, arrival=0),
        ])
        engine.run()
        assert mc.reads == 1 and mc.writes == 1

    def test_one_data_bus_serializes_bursts(self):
        """Reads to five idle banks overlap their activates, but the
        channel's one data bus moves their bursts one after another."""
        done = []
        engine, mc = build(lambda r, t: done.append(t))
        mc.submit_many([
            DRAMRequest(i, bank=i, row=1, is_write=False, arrival=0)
            for i in range(5)
        ])
        engine.run()
        assert len(done) == 5
        assert (np.diff(done) >= T.t_burst).all()

    def test_bank_range_validated(self):
        engine, mc = build()
        with pytest.raises(ValueError):
            mc.submit_many([
                DRAMRequest(0, bank=99, row=1, is_write=False, arrival=0)
            ])

    def test_payload_passed_through(self):
        seen = []
        engine, mc = build(lambda r, t: seen.append(r.payload))
        mc.submit_many([DRAMRequest(0, bank=0, row=1, is_write=False,
                                    arrival=0, payload="tag")])
        engine.run()
        assert seen == ["tag"]

    def test_pending_drains_to_zero(self):
        engine, mc = build()
        mc.submit_many([
            DRAMRequest(i, bank=i % 16, row=i, is_write=False, arrival=0)
            for i in range(50)
        ])
        assert mc.pending >= 0
        engine.run()
        assert mc.pending == 0

    def test_custom_scheduler_injection(self):
        engine = Engine()
        mc = MemoryController(engine, T, 0, scheduler=FCFSScheduler(T.banks_per_channel))
        mc.submit_many([DRAMRequest(0, bank=0, row=1, is_write=False, arrival=0)])
        engine.run()
        assert mc.reads == 1

    def test_inflight_cap_limits_pipelining(self):
        """With max_inflight=1 requests strictly serialize."""
        done = []
        engine = Engine()
        mc = MemoryController(engine, T, 0, on_complete=lambda r, t: done.append(t),
                              max_inflight=1)
        mc.submit_many([
            DRAMRequest(i, bank=i, row=1, is_write=False, arrival=0)
            for i in range(3)
        ])
        engine.run()
        assert done == sorted(done)
        assert done[1] - done[0] >= T.t_burst
