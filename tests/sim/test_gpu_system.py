"""Integration tests for the full-system simulator."""

import gc
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import hynix_gddr5_map
from repro.dram.controller import MemoryController
from repro.dram.stacked import stacked_memory_config
from repro.gpu.config import GPUConfig, config_with_sms
from repro.gpu.llc import LLCSlice
from repro.gpu.sm import SM
from repro.gpu.thread_block import TBContext, WarpContext
from repro.registry import make_scheme, make_workload, memory_config
from repro.sim.auto import Auto
from repro.sim.engine import Engine
from repro.sim.gpu_system import GPUSystem, simulate
from repro.workloads.base import KernelTrace, TBTrace, Workload
from repro.workloads.patterns import make_tb

AMAP = hynix_gddr5_map()


def auto_for(fidelity, workload):
    """``GPUSystem.run``'s *auto* argument for a *fidelity* name."""
    return None if fidelity == "exact" else Auto.standalone(workload, AMAP)


def concentrated_workload(n_tbs=48, reqs=8, stride=1 << 20, with_writes=False):
    """Every TB walks 1 MB-strided lines: all traffic on channel 0 under BASE."""
    tbs = []
    for t in range(n_tbs):
        addrs = (np.arange(reqs, dtype=np.uint64) + t * reqs) * np.uint64(stride)
        addrs %= np.uint64(1 << 30)
        writes = np.zeros(reqs, dtype=bool)
        if with_writes:
            writes[::2] = True
        tbs.append(make_tb(t, addrs, writes, reqs_per_warp=reqs, gap=4))
    kernel = KernelTrace("k", tuple(tbs))
    return Workload("synthetic", "SYN", (kernel,), instructions_per_request=50)


def two_kernel_workload():
    k1 = KernelTrace("k1", (make_tb(0, [0, 128], gap=0),))
    k2 = KernelTrace("k2", (make_tb(0, [4096], gap=0),))
    return Workload("seq", "SEQ", (k1, k2), instructions_per_request=50)


class TestConservation:
    def test_all_requests_issued(self):
        wl = concentrated_workload()
        system = GPUSystem(make_scheme("BASE", AMAP))
        result = system.run(wl)
        issued = sum(sm.instructions_issued for sm in system.sms)
        assert issued == wl.n_requests

    def test_llc_misses_equal_dram_reads(self):
        wl = concentrated_workload()
        system = GPUSystem(make_scheme("BASE", AMAP))
        system.run(wl)
        llc_read_misses = sum(s.cache.stats.read_misses for s in system.slices)
        # Misses may merge in MSHRs, so DRAM reads <= read misses; but
        # every DRAM read must stem from a miss.
        assert 0 < system.dram.reads <= llc_read_misses

    def test_no_outstanding_state_at_end(self):
        wl = concentrated_workload(with_writes=True)
        system = GPUSystem(make_scheme("PAE", AMAP, seed=1))
        result = system.run(wl)
        assert system.dram.pending == 0
        for sm in system.sms:
            assert sm.mshr.in_flight == 0
        for sl in system.slices:
            assert sl.mshr.in_flight == 0
            assert sl.outstanding == 0
        assert result.cycles > 0

    def test_writes_reach_dram(self):
        wl = concentrated_workload(with_writes=True)
        system = GPUSystem(make_scheme("BASE", AMAP))
        system.run(wl)
        # Write-through stores allocate dirty LLC lines whose evictions
        # (plus end-of-run residue) bound DRAM writes from above.
        llc_writebacks = sum(s.cache.stats.writebacks for s in system.slices)
        assert system.dram.writes == llc_writebacks


class TestSuiteConservation:
    """The hierarchy's counters balance on suite workloads (exact mode):
    every request issues, every DRAM read is an LLC MSHR fetch, every
    DRAM write an LLC writeback, every response packet an L1 MSHR
    fill, every DRAM access a row hit or an activate, and nothing is
    left in flight."""

    @pytest.mark.parametrize("name,scheme,scale,memory,n_sms", [
        ("MT", "BASE", 0.25, "gddr5", 12),
        ("SC", "PAE", 0.5, "stacked", 16),
        ("BFS", "FAE", 0.5, "gddr5", 12),
    ], ids=["MT-BASE-gddr5", "SC-PAE-stacked-16sms", "BFS-FAE-gddr5"])
    def test_identities_hold(self, name, scheme, scale, memory, n_sms):
        memory = memory_config(memory)
        workload = make_workload(name, scale=scale)
        system = GPUSystem(
            make_scheme(scheme, memory.address_map),
            config=config_with_sms(n_sms), timing=memory.timing,
            dram_power_params=memory.power_params,
        )
        system.run(workload)
        sms, slices, dram = system.sms, system.slices, system.dram
        assert sum(sm.instructions_issued for sm in sms) == workload.n_requests
        assert dram.reads == sum(s.mshr.allocations for s in slices) > 0
        assert dram.writes == sum(s.cache.stats.writebacks for s in slices)
        assert system.response_noc.stats.packets == sum(
            sm.mshr.allocations for sm in sms
        )
        row_hits = sum(c.row_hits for c in dram.controllers)
        assert row_hits + dram.activates == dram.reads + dram.writes
        assert dram.pending == 0
        assert all(not sm.mshr.in_flight for sm in sms)
        assert all(not s.mshr.in_flight and not s.outstanding for s in slices)


class TestMappingEffects:
    def test_pae_fixes_concentration(self):
        """The headline mechanism: channel-concentrated traffic under
        BASE spreads out and speeds up under PAE."""
        wl = concentrated_workload()
        base = simulate(wl, make_scheme("BASE", AMAP))
        pae = simulate(wl, make_scheme("PAE", AMAP, seed=2))
        assert base.channel_parallelism < 1.5
        assert pae.channel_parallelism > 2.5
        assert base.cycles / pae.cycles > 1.5

    def test_identity_mapping_decode_consistency(self):
        wl = concentrated_workload(n_tbs=4)
        system = GPUSystem(make_scheme("BASE", AMAP))
        system.run(wl)
        # All requests stride by 1 MB = bit 20 upwards: channel bits are
        # zero, so only controller 0 may have seen reads.
        for mc in system.dram.controllers[1:]:
            assert mc.reads == 0


class TestKernelSequencing:
    def test_kernels_run_back_to_back(self):
        wl = two_kernel_workload()
        result = simulate(wl, make_scheme("BASE", AMAP))
        assert result.requests == 3
        assert result.metadata["max_tbs_in_flight"] == 1


class TestConfigurations:
    def test_more_sms_do_not_slow_down(self):
        wl = concentrated_workload(n_tbs=96)
        slow = simulate(wl, make_scheme("PAE", AMAP), config=config_with_sms(4))
        fast = simulate(wl, make_scheme("PAE", AMAP), config=config_with_sms(24))
        assert fast.cycles <= slow.cycles

    def test_stacked_memory_run(self):
        cfg = stacked_memory_config()
        wl = concentrated_workload(n_tbs=16)
        scheme = make_scheme("PAE", cfg.address_map, seed=1)
        result = simulate(
            wl, scheme, config=config_with_sms(16), timing=cfg.timing,
            dram_power_params=cfg.power_params,
        )
        assert result.cycles > 0
        assert result.metadata["dram_config"] == cfg.timing.name

    def test_single_use_enforced(self):
        wl = concentrated_workload(n_tbs=4)
        system = GPUSystem(make_scheme("BASE", AMAP))
        system.run(wl)
        with pytest.raises(RuntimeError, match="single-use"):
            system.run(wl)


class TestMetricsPlumbing:
    def test_result_fields_populated(self):
        wl = concentrated_workload(with_writes=True)
        result = simulate(wl, make_scheme("FAE", AMAP, seed=3))
        assert 0 <= result.l1_miss_rate <= 1
        assert 0 <= result.llc_miss_rate <= 1
        assert 0 <= result.row_hit_rate <= 1
        assert result.noc_mean_latency > 0
        assert result.dram_power.total > 0
        assert result.gpu_power > 0
        assert result.scheme == "FAE"
        assert result.metadata["events"] > 0


def one_tb_kernel(name, addresses, n_tbs=1):
    """A kernel of *n_tbs* one-warp TBs issuing *addresses* each."""
    n = len(addresses)
    return KernelTrace(name, tuple(
        TBTrace(t, addresses, np.zeros(n, dtype=np.int64),
                np.zeros(n, dtype=bool), [n])
        for t in range(n_tbs)
    ))


def run_in_child(code, timeout=60):
    """Run *code* in a fresh interpreter; a hang fails instead of stalling."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    try:
        return subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        pytest.fail(f"the run did not finish within {timeout} s")


@pytest.mark.parametrize("fidelity", ["exact", "auto"])
def test_tb_wider_than_an_sm_fails_fast(fidelity):
    """No SM can ever take a TB of more warps than ``max_warps_per_sm``
    (48): loading it must fail with a message, not stall the run
    (auto fidelity used to poll an idle engine forever)."""
    recipe = {"kernels": [{
        "pattern": "row_segment", "tbs": 2, "width": 7680,
        "tb_stride": 1048576, "reqs_per_warp": 1,
    }]}
    out = run_in_child(f"""
from repro.core import hynix_gddr5_map
from repro.registry import make_scheme
from repro.sim.gpu_system import simulate
from repro.workloads.recipes import build_recipe_workload

workload = build_recipe_workload("WIDE", {recipe!r})
try:
    simulate(workload, make_scheme("PAE", hynix_gddr5_map()),
             fidelity={fidelity!r})
except ValueError as exc:
    print(exc)
""")
    assert out.stdout.strip() == (
        "TB 0 has 60 warps, more than an SM holds (max_warps_per_sm=48)"
    ), out.stderr


def test_auto_poll_fails_when_nothing_can_progress():
    """Auto fidelity's poll loop raises when its engine is idle but
    TBs remain, instead of advancing nothing forever."""
    out = run_in_child("""
from repro.core import hynix_gddr5_map
from repro.gpu.sm import SM
from repro.registry import make_scheme
from repro.sim.gpu_system import simulate
from repro.workloads.base import KernelTrace, Workload
from repro.workloads.patterns import make_tb

SM.can_accept = lambda self, tb: False  # no TB is ever dispatched
kernel = KernelTrace("k", (make_tb(0, [0, 128], gap=0),))
workload = Workload("stuck", "STK", (kernel,), instructions_per_request=50)
try:
    simulate(workload, make_scheme("PAE", hynix_gddr5_map()), fidelity="auto")
except RuntimeError as exc:
    print(exc)
""")
    assert out.stdout.strip() == (
        "simulation drained its event queue before the kernel finished "
        "(0 TBs in flight)"
    ), out.stderr


def test_many_empty_kernels_run_in_exact_mode():
    """A kernel of empty TBs completes inside its own load; 500 in a
    row must not nest loads past the recursion limit, and they add
    nothing to the result."""
    first = one_tb_kernel("k1", [0, 128])
    last = one_tb_kernel("k2", [4096, 8192])
    empties = tuple(one_tb_kernel(f"e{i}", []) for i in range(500))
    scheme = make_scheme("PAE", AMAP)
    with_empties = simulate(Workload(
        "seq", "SEQ", (first, *empties, last), instructions_per_request=50,
    ), scheme)
    without = simulate(Workload(
        "seq", "SEQ", (first, last), instructions_per_request=50,
    ), scheme)
    assert with_empties.to_dict() == without.to_dict()


@pytest.mark.parametrize("fidelity", ["exact", "auto"])
def test_a_kernel_of_many_empty_tbs_runs(fidelity):
    """An empty TB retires inside its own dispatch; 1,000 of them in
    one kernel must not nest dispatches past the recursion limit."""
    workload = Workload("seq", "SEQ", (
        one_tb_kernel("k1", [0, 128]),
        one_tb_kernel("empty", [], n_tbs=1000),
        one_tb_kernel("k2", [4096, 8192]),
    ), instructions_per_request=50)
    system = GPUSystem(make_scheme("PAE", AMAP))
    result = system.run(workload, auto=auto_for(fidelity, workload))
    assert result.requests == 4
    assert system.scheduler.tbs_dispatched == 1002


MACHINE = (GPUSystem, SM, LLCSlice, MemoryController, Engine)


def live(kinds):
    """Objects of exactly these *kinds* the collector tracks."""
    return sum(type(obj) in kinds for obj in gc.get_objects())


@pytest.mark.parametrize("ending", ["exact", "auto", "raises"])
def test_finished_run_frees_its_contexts(ending, monkeypatch):
    """However a run ends, reference counting frees what it built: a
    finished run's warp and TB contexts and the per-op lists they
    share, and the whole machine once its owner drops the system.  GC
    is disabled, so the cycle collector frees nothing."""
    if ending == "auto":
        workload = make_workload("SRAD2", scale=1.0)
    else:
        workload = make_workload("MT", scale=0.1)
    if ending == "raises":
        def failing_fill(sm, line, set_id):
            raise RuntimeError("injected fill fault")

        monkeypatch.setattr(SM, "on_fill", failing_fill)
    auto = Auto.standalone(workload, AMAP) if ending == "auto" else None

    gc.collect()
    contexts, machines = live((WarpContext, TBContext)), live(MACHINE)
    gc.disable()
    try:
        system = GPUSystem(make_scheme("PAE", AMAP))
        if ending == "raises":
            with pytest.raises(RuntimeError, match="injected fill fault"):
                system.run(workload)
            # It failed mid-simulation: the queued events are dropped
            # and the TBs in flight go with the system.
            assert system.scheduler.in_flight > 0 and system.engine.idle
        else:
            result = system.run(workload, auto=auto)
            assert live((WarpContext, TBContext)) == contexts
            assert system._llc_log == [] and system._dram_log == []
        # Counters, cache contents and the victim memo stay readable.
        assert system.engine.events_processed > 0
        assert any(
            table for llc in system.slices for table in llc.cache.line_tables
        )
        assert system._victim_coords
        del system
        assert live((WarpContext, TBContext)) == contexts
        assert live(MACHINE) == machines
    finally:
        gc.enable()
    if ending == "auto":
        # The auto run froze a kernel: its warps were fast-forwarded.
        assert result.metadata["sampled"]["ff_phases"] >= 1
