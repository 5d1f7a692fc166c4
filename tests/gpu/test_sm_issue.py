"""Focused tests for the SM's batched issue engine.

Covers the paths the per-SM tick rewrite must preserve: MSHR-full
parking and retry order (GTO age order), the no-double-schedule
invariant around ``on_fill``, ``max_outstanding_per_warp`` pipelining,
and the completion-underflow guard.
"""

import numpy as np
import pytest

from repro.gpu.cache import SetAssociativeCache
from repro.gpu.config import GPUConfig
from repro.gpu.sm import SM
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

    def tb(self, addresses, writes=None, gaps=None, n_warps=1):
        per = len(addresses) // n_warps
        warp_traces = []
        for w in range(n_warps):
            chunk = slice(w * per, (w + 1) * per)
            warp_traces.append(WarpTrace(
                gaps=np.asarray(
                    gaps[chunk] if gaps is not None else [0] * per, dtype=np.int64
                ),
                addresses=np.asarray(addresses[chunk], dtype=np.uint64),
                writes=np.asarray(
                    writes[chunk] if writes is not None else [False] * per
                ),
            ))
        return TBContext(TBTrace(0, tuple(warp_traces)), 0, identity_prepare)


class TestMSHRFullParking:
    def test_parked_warps_retain_gto_order(self):
        """Warps parked on a full MSHR file retry in age order: the
        oldest parked warp issues first when entries free up."""
        h = Harness(small_config(l1_mshrs=1, max_outstanding_per_warp=1))
        # Three warps, three distinct lines: first warp takes the only
        # MSHR, the other two park behind it in issue order.
        h.sm.assign_tb(h.tb([0x1000, 0x2000, 0x3000], n_warps=3))
        h.engine.run()
        assert [r.line for r in h.reads] == [0x1000]
        assert h.sm.mshr.stalls == 2
        h.sm.on_fill(0x1000)
        h.engine.run()
        # Only one MSHR: the oldest parked warp (0x2000) won the retry.
        assert [r.line for r in h.reads] == [0x1000, 0x2000]
        h.sm.on_fill(0x2000)
        h.engine.run()
        assert [r.line for r in h.reads] == [0x1000, 0x2000, 0x3000]

    def test_repark_preserves_front_position(self):
        """A warp that retries into a still-full MSHR goes back to the
        *front* of the park queue, keeping its age priority."""
        h = Harness(small_config(l1_mshrs=1, max_outstanding_per_warp=4))
        h.sm.assign_tb(h.tb([0x1000, 0x2000, 0x3000]))
        h.engine.run()
        # One warp, three ops: op0 holds the MSHR, op1 parked (op2 not
        # yet issued because the warp is parked).
        assert [r.line for r in h.reads] == [0x1000]
        h.sm.on_fill(0x1000)
        h.engine.run()
        h.sm.on_fill(0x2000)
        h.engine.run()
        h.sm.on_fill(0x3000)
        h.engine.run()
        assert [r.line for r in h.reads] == [0x1000, 0x2000, 0x3000]
        assert h.done_tbs and h.done_tbs[0].done

    def test_no_double_schedule_after_fill(self):
        """on_fill both completes ops and retries parked warps; a warp
        woken by its own fill must not issue its next op twice."""
        h = Harness(small_config(l1_mshrs=1, max_outstanding_per_warp=1))
        h.sm.assign_tb(h.tb([0x1000, 0x2000], n_warps=1))
        h.engine.run()
        assert len(h.reads) == 1
        h.sm.on_fill(0x1000)
        h.engine.run()
        # Exactly one issue of op1 — not one from _op_completed plus
        # one from the parked-retry path.
        assert [r.line for r in h.reads] == [0x1000, 0x2000]
        assert h.sm.instructions_issued == 2
        h.sm.on_fill(0x2000)
        h.engine.run()
        assert h.sm.instructions_issued == 2
        assert h.done_tbs and h.done_tbs[0].done

    def test_parked_warp_hits_after_another_warps_fill(self):
        """A parked warp whose line arrived via another warp's fetch
        hits in the L1 on retry instead of re-allocating an MSHR."""
        h = Harness(small_config(l1_mshrs=1, max_outstanding_per_warp=1))
        h.sm.assign_tb(h.tb([0x1000, 0x1000], n_warps=2))
        h.engine.run()
        # Warp A fetches 0x1000; warp B merges into the same MSHR (no
        # park: merging is allowed even when the file is full).
        assert len(h.reads) == 1
        assert h.sm.mshr.merges == 1
        h.sm.on_fill(0x1000)
        h.engine.run()
        assert len(h.reads) == 1
        assert h.done_tbs and h.done_tbs[0].done


class TestOutstandingPipelining:
    def test_max_outstanding_pipelines_independent_loads(self):
        h = Harness(small_config(max_outstanding_per_warp=3, l1_mshrs=8))
        h.sm.assign_tb(h.tb([0x1000, 0x2000, 0x3000, 0x4000, 0x5000]))
        h.engine.run()
        assert len(h.reads) == 3  # exactly max_outstanding in flight
        h.sm.on_fill(0x1000)
        h.engine.run()
        assert len(h.reads) == 4  # one completion frees one slot
        h.sm.on_fill(0x2000)
        h.sm.on_fill(0x3000)
        h.engine.run()
        assert len(h.reads) == 5

    def test_port_spacing_respected_under_pipelining(self):
        h = Harness(small_config(
            issue_interval=3, max_outstanding_per_warp=4, l1_mshrs=8
        ))
        h.sm.assign_tb(h.tb([0x1000, 0x2000, 0x3000]))
        h.engine.run()
        times = [r.issued_at for r in h.reads]
        assert times == sorted(times)
        assert all(b - a >= 3 for a, b in zip(times, times[1:]))

    def test_gap_delays_readiness(self):
        h = Harness(small_config(l1_mshrs=8))
        h.sm.assign_tb(h.tb([0x1000, 0x2000], gaps=[7, 0]))
        h.engine.run()
        assert h.reads[0].issued_at == 7

    def test_stall_cycles_accumulate_under_port_contention(self):
        h = Harness(small_config(
            issue_interval=4, max_outstanding_per_warp=1, l1_mshrs=8
        ))
        h.sm.assign_tb(h.tb([0x1000, 0x2000, 0x3000], n_warps=3))
        h.engine.run()
        # Three warps ready at cycle 0 share one port at one issue per
        # 4 cycles: the second waits 4, the third waits 8.
        assert h.sm.warp_stall_cycles == 12


class TestTickEventBudget:
    def test_gap_zero_chain_costs_linear_events(self):
        """One tick per issue slot: a gap-0 op chain must cost O(n)
        engine events, not a compounding storm of duplicate ticks."""
        n_ops = 200
        h = Harness(small_config(issue_interval=2, max_outstanding_per_warp=1))
        # Stores complete synchronously at NoC delivery in this
        # harness, keeping the warp permanently below its outstanding
        # limit — the worst case for synchronous re-arming.
        h.sm.assign_tb(h.tb([0x1000 + 128 * i for i in range(n_ops)],
                            writes=[True] * n_ops))
        while h.writes or h.engine.pending:
            for _, done in h.writes:
                done()
            h.writes.clear()
            h.engine.run()
        assert h.sm.instructions_issued == n_ops
        # ~2 events per op (ready + tick); 4x headroom, far below n^2.
        assert h.engine.events_processed <= 4 * n_ops


class TestCompletionGuards:
    def test_completion_underflow_guard_fires(self):
        h = Harness()
        tb = h.tb([0x1000])
        with pytest.raises(RuntimeError, match="underflow"):
            h.sm._op_completed(tb.warps[0])

    def test_tb_finishes_exactly_once(self):
        h = Harness(small_config(l1_mshrs=8))
        h.sm.assign_tb(h.tb([0x1000, 0x2000], n_warps=2))
        h.engine.run()
        h.sm.on_fill(0x1000)
        h.engine.run()
        assert not h.done_tbs  # second warp still outstanding
        h.sm.on_fill(0x2000)
        h.engine.run()
        assert len(h.done_tbs) == 1
        # A spurious extra completion now trips the underflow guard.
        with pytest.raises(RuntimeError, match="underflow"):
            h.sm._op_completed(h.done_tbs[0].warps[0])
