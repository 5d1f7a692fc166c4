"""Direct unit tests for the SM warp-issue pipeline."""

import numpy as np
import pytest

from repro.gpu.cache import SetAssociativeCache
from repro.gpu.config import GPUConfig
from repro.gpu.sm import SM, MemRequest
from repro.gpu.thread_block import TBContext
from repro.sim.engine import Engine
from repro.workloads.base import TBTrace, WarpTrace

# Set hashing of the default L1 geometry (the precomputed per-op
# ``l1_sets`` the prepare contract requires).
_CFG = GPUConfig()
L1 = SetAssociativeCache(_CFG.l1_sets, _CFG.l1_ways, _CFG.line_bytes)


def small_config(**overrides):
    defaults = dict(l1_mshrs=2, max_outstanding_per_warp=2, l1_latency=5)
    defaults.update(overrides)
    return GPUConfig(**defaults)


def identity_prepare(trace: WarpTrace):
    """Prepare hook mapping addresses 1:1 with trivial coordinates."""
    lines = trace.addresses.astype(np.int64)
    zeros = np.zeros(len(trace), dtype=np.int64)
    return (
        lines, zeros, zeros, (lines >> 7).astype(np.int64), zeros,
        L1.set_indices_array(lines), zeros,
    )


class Harness:
    def __init__(self, config=None):
        self.engine = Engine()
        self.config = config or small_config()
        self.reads = []
        self.writes = []
        self.sm = SM(
            self.engine, self.config, 0,
            send_read=self.reads.append,
            send_write=lambda sm, sl, line, llc_set, fn, arg: self.writes.append(
                (line, lambda: fn(arg))
            ),
        )
        self.done_tbs = []
        self.sm.on_tb_done = self.done_tbs.append

    def tb(self, addresses, writes=None, gap=0, n_warps=1):
        per = len(addresses) // n_warps
        warp_traces = []
        for w in range(n_warps):
            chunk = slice(w * per, (w + 1) * per)
            warp_traces.append(WarpTrace(
                gaps=np.full(per, gap, dtype=np.int64),
                addresses=np.asarray(addresses[chunk], dtype=np.uint64),
                writes=np.asarray(
                    writes[chunk] if writes is not None else [False] * per
                ),
            ))
        return TBContext(TBTrace(0, tuple(warp_traces)), 0, identity_prepare)


class TestReadPath:
    def test_miss_sends_one_request(self):
        h = Harness()
        h.sm.assign_tb(h.tb([0x1000]))
        h.engine.run()
        assert len(h.reads) == 1
        assert h.reads[0].line == 0x1000

    def test_secondary_miss_merges(self):
        h = Harness()
        h.sm.assign_tb(h.tb([0x1000, 0x1000]))
        h.engine.run()
        assert len(h.reads) == 1  # merged in the L1 MSHR
        assert h.sm.mshr.merges == 1

    def test_fill_wakes_all_waiters_and_completes_tb(self):
        h = Harness()
        h.sm.assign_tb(h.tb([0x1000, 0x1000]))
        h.engine.run()
        h.sm.on_fill(0x1000)
        h.engine.run()
        assert h.done_tbs and h.done_tbs[0].done

    def test_hit_after_fill(self):
        h = Harness()
        h.sm.assign_tb(h.tb([0x1000]))
        h.engine.run()
        h.sm.on_fill(0x1000)
        h.engine.run()
        h.sm.assign_tb(h.tb([0x1000]))
        h.engine.run()
        assert len(h.reads) == 1  # second access is an L1 hit
        assert h.sm.l1.stats.read_hits == 1

    def test_warp_mlp_limits_outstanding(self):
        """With MLP 2, only two reads leave before any completes."""
        h = Harness(small_config(max_outstanding_per_warp=2, l1_mshrs=8))
        h.sm.assign_tb(h.tb([0x1000, 0x2000, 0x3000, 0x4000]))
        h.engine.run()
        assert len(h.reads) == 2
        h.sm.on_fill(0x1000)
        h.engine.run()
        assert len(h.reads) == 3

    def test_mshr_full_parks_warp(self):
        h = Harness(small_config(l1_mshrs=1, max_outstanding_per_warp=4))
        h.sm.assign_tb(h.tb([0x1000, 0x2000]))
        h.engine.run()
        assert len(h.reads) == 1  # second miss parked
        assert h.sm.mshr.stalls == 1
        h.sm.on_fill(0x1000)
        h.engine.run()
        assert len(h.reads) == 2  # retried after the fill


class TestWritePath:
    def test_write_waits_for_acceptance(self):
        h = Harness()
        writes = [True]
        h.sm.assign_tb(h.tb([0x1000], writes=writes))
        h.engine.run()
        assert len(h.writes) == 1
        assert not h.done_tbs  # store not yet accepted downstream
        line, done = h.writes[0]
        done()
        h.engine.run()
        assert h.done_tbs


class TestOccupancy:
    def test_can_accept_respects_tb_slots(self):
        h = Harness(small_config(max_tbs_per_sm=1))
        tb1 = h.tb([0x1000])
        tb2 = h.tb([0x2000])
        h.sm.assign_tb(tb1)
        assert not h.sm.can_accept(tb2)
        with pytest.raises(RuntimeError):
            h.sm.assign_tb(tb2)

    def test_can_accept_respects_warp_budget(self):
        h = Harness(small_config(max_warps_per_sm=2))
        tb = h.tb([0x1000, 0x2000, 0x3000], n_warps=3)
        assert not h.sm.can_accept(tb)

    def test_issue_port_serializes(self):
        h = Harness(small_config(issue_interval=4, l1_mshrs=8,
                                 max_outstanding_per_warp=1))
        h.sm.assign_tb(h.tb([0x1000, 0x2000], gap=0, n_warps=2))
        h.engine.run()
        # Two warps issued through one port, 4 cycles apart.
        assert h.reads[1].issued_at - h.reads[0].issued_at >= 4


class TestWarpContextState:
    def test_done_requires_completion(self):
        h = Harness()
        tb = h.tb([0x1000])
        warp = tb.warps[0]
        h.sm.assign_tb(tb)
        h.engine.run()
        assert warp.issued_all and not warp.done
        h.sm.on_fill(0x1000)
        h.engine.run()
        assert warp.done

    def test_advance_past_end_rejected(self):
        tb = Harness().tb([0x1000])
        warp = tb.warps[0]
        warp.advance()
        with pytest.raises(RuntimeError):
            warp.advance()

    def test_completion_underflow_detected(self):
        h = Harness()
        tb = h.tb([0x1000])
        with pytest.raises(RuntimeError):
            h.sm._op_completed(tb.warps[0])
