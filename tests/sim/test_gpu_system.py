"""Integration tests for the full-system simulator."""

import numpy as np
import pytest

from repro.core import hynix_gddr5_map
from repro.dram.stacked import stacked_memory_config
from repro.gpu.config import GPUConfig, config_with_sms
from repro.registry import make_scheme
from repro.sim.gpu_system import GPUSystem, simulate
from repro.workloads.base import KernelTrace, TBTrace, Workload, WarpTrace

AMAP = hynix_gddr5_map()


def concentrated_workload(n_tbs=48, reqs=8, stride=1 << 20, with_writes=False):
    """Every TB walks 1 MB-strided lines: all traffic on channel 0 under BASE."""
    tbs = []
    for t in range(n_tbs):
        addrs = (np.arange(reqs, dtype=np.uint64) + t * reqs) * np.uint64(stride)
        addrs %= np.uint64(1 << 30)
        writes = np.zeros(reqs, dtype=bool)
        if with_writes:
            writes[::2] = True
        warps = (WarpTrace(np.full(reqs, 4, dtype=np.int64), addrs, writes),)
        tbs.append(TBTrace(t, warps))
    kernel = KernelTrace("k", tuple(tbs))
    return Workload("synthetic", "SYN", (kernel,), instructions_per_request=50)


def two_kernel_workload():
    tb = TBTrace(0, (WarpTrace.from_addresses(np.array([0, 128], dtype=np.uint64)),))
    k1 = KernelTrace("k1", (tb,))
    tb2 = TBTrace(0, (WarpTrace.from_addresses(np.array([4096], dtype=np.uint64)),))
    k2 = KernelTrace("k2", (tb2,))
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
