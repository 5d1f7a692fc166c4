"""Direct unit tests for the global TB scheduler."""

import numpy as np
import pytest

from repro.gpu.cache import SetAssociativeCache
from repro.gpu.config import GPUConfig
from repro.gpu.sm import SM
from repro.gpu.tb_scheduler import TBScheduler
from repro.gpu.thread_block import TBContext
from repro.sim.engine import Engine
from repro.workloads.base import TBTrace
from repro.workloads.patterns import make_tb


# Set hashing of the default L1 geometry (the precomputed per-op
# ``l1_sets`` the prepare contract requires).
_CFG = GPUConfig()
L1 = SetAssociativeCache(_CFG.l1_sets, _CFG.l1_ways, _CFG.line_bytes)


def identity_prepare(trace):
    """The nine per-op lists of the TB's warps, back to back."""
    lines = trace.addresses.astype(np.int64)
    zeros = np.zeros(len(lines), dtype=np.int64)
    return tuple(field.tolist() for field in (
        trace.gaps, trace.writes,
        lines, zeros, zeros, zeros, zeros, L1.set_indices_array(lines), zeros,
    ))


class Harness:
    def __init__(self, n_sms=2, max_tbs_per_sm=1):
        self.engine = Engine()
        config = GPUConfig(n_sms=n_sms, max_tbs_per_sm=max_tbs_per_sm)
        self.pending_fills = []
        self.sms = [
            SM(self.engine, config, i,
               send_read=lambda r: self.pending_fills.append(r),
               send_write=lambda sm, sl, l, llc_set, fn, arg: fn(arg))
            for i in range(n_sms)
        ]
        self.kernels_done = 0
        self.scheduler = TBScheduler(self.sms, self._kernel_done)

    def _kernel_done(self):
        self.kernels_done += 1

    def tb(self, tb_id, line=0x1000):
        trace = make_tb(tb_id, [line + tb_id * 128], gap=0)
        return TBContext(trace, 0, identity_prepare(trace))

    def drain_fills(self):
        """Complete every outstanding read (acts as LLC+DRAM)."""
        self.engine.run()
        while self.pending_fills:
            req = self.pending_fills.pop(0)
            self.sms[req.sm_id].on_fill(req.line, req.l1_set)
            self.engine.run()


class TestDispatch:
    def test_in_order_dispatch_fills_sms(self):
        h = Harness(n_sms=2, max_tbs_per_sm=1)
        h.scheduler.load_kernel([h.tb(i) for i in range(4)])
        h.engine.run()
        # Two TBs in flight (one per SM), two queued.
        assert h.scheduler.in_flight == 2
        assert h.scheduler.pending == 2
        assert h.scheduler.max_in_flight == 2

    def test_completion_releases_next_tb(self):
        h = Harness(n_sms=1, max_tbs_per_sm=1)
        h.scheduler.load_kernel([h.tb(i) for i in range(3)])
        h.drain_fills()
        assert h.scheduler.idle
        assert h.scheduler.tbs_dispatched == 3
        assert h.kernels_done == 1

    def test_window_is_contiguous(self):
        """In-flight TB ids always form a run of consecutive ids."""
        h = Harness(n_sms=3, max_tbs_per_sm=2)
        tbs = [h.tb(i) for i in range(12)]
        h.scheduler.load_kernel(tbs)
        h.engine.run()
        in_flight = sorted(
            tb.tb_id for sm in h.sms for tb in sm.active_tbs
        )
        assert in_flight == list(range(len(in_flight)))

    def test_least_loaded_sm_preferred(self):
        h = Harness(n_sms=2, max_tbs_per_sm=4)
        h.scheduler.load_kernel([h.tb(i) for i in range(4)])
        h.engine.run()
        assert [sm.tb_count for sm in h.sms] == [2, 2]


class TestKernelBarrier:
    def test_load_while_busy_rejected(self):
        h = Harness()
        h.scheduler.load_kernel([h.tb(0)])
        with pytest.raises(RuntimeError):
            h.scheduler.load_kernel([h.tb(1)])

    def test_empty_kernel_rejected(self):
        h = Harness()
        with pytest.raises(ValueError):
            h.scheduler.load_kernel([])

    def test_second_kernel_after_first_completes(self):
        h = Harness(n_sms=1)
        h.scheduler.load_kernel([h.tb(0)])
        h.drain_fills()
        assert h.kernels_done == 1
        h.scheduler.load_kernel([h.tb(0)])
        h.drain_fills()
        assert h.kernels_done == 2


class TestWarpCountCounter:
    """``SM.warp_count`` is a running counter updated on assign and TB
    completion; it must always equal the sum over the active TBs."""

    @staticmethod
    def assert_consistent(sms):
        for sm in sms:
            assert sm.warp_count == sum(tb.n_warps for tb in sm.active_tbs)

    def multi_warp_tb(self, tb_id, n_warps, empty_warps=0):
        """One op per warp, then *empty_warps* warps of no ops."""
        trace = TBTrace(
            tb_id, 0x1000 + (tb_id * 8 + np.arange(n_warps)) * 128,
            np.zeros(n_warps, dtype=np.int64), np.zeros(n_warps, dtype=bool),
            np.minimum(np.arange(1, n_warps + empty_warps + 1), n_warps),
        )
        return TBContext(trace, 0, identity_prepare(trace))

    def test_counter_tracks_assign_and_done_sequences(self):
        h = Harness(n_sms=2, max_tbs_per_sm=3)
        for sm in h.sms:
            assign, done = sm.assign_tb, sm.on_tb_done

            def checked_assign(tb, assign=assign):
                assign(tb)
                self.assert_consistent(h.sms)

            def checked_done(tb, done=done):
                self.assert_consistent(h.sms)
                done(tb)

            sm.assign_tb = checked_assign
            sm.on_tb_done = checked_done
        tbs = [
            self.multi_warp_tb(i, 1 + i % 3, empty_warps=i % 2)
            for i in range(10)
        ]
        h.scheduler.load_kernel(tbs)
        self.assert_consistent(h.sms)
        h.drain_fills()
        assert h.scheduler.idle and h.kernels_done == 1
        assert [sm.warp_count for sm in h.sms] == [0, 0]

    def test_empty_tb_leaves_counter_at_zero(self):
        """A TB with no memory ops completes inside assign_tb."""
        h = Harness(n_sms=1)
        h.scheduler.load_kernel([self.multi_warp_tb(0, 0, empty_warps=2)])
        assert h.sms[0].warp_count == 0
        assert h.kernels_done == 1
