"""Unit tests for simulation result records."""

import pytest

from repro.dram.power import DRAMPowerBreakdown
from repro.sim.results import SimulationResult, perf_per_watt_ratio, speedup


def make_result(workload="MT", scheme="BASE", cycles=1000, gpu_power=50.0,
                dram=DRAMPowerBreakdown(10, 1, 4, 2, 1)):
    return SimulationResult(
        workload=workload, scheme=scheme, cycles=cycles, requests=100,
        l1_miss_rate=0.9, llc_miss_rate=0.5, llc_accesses=100,
        noc_mean_latency=20.0, llc_parallelism=2.0, channel_parallelism=3.0,
        bank_parallelism=5.0, row_hit_rate=0.7, dram_activates=30,
        dram_reads=50, dram_writes=20, dram_power=dram,
        gpu_power=gpu_power, instructions=10000.0,
    )


class TestDerived:
    def test_system_power(self):
        r = make_result()
        assert r.system_power == pytest.approx(50 + 18)

    def test_perf_per_watt(self):
        r = make_result()
        assert r.perf_per_watt == pytest.approx((1 / 1000) / 68)


class TestComparisons:
    def test_speedup(self):
        base = make_result(cycles=2000)
        fast = make_result(scheme="PAE", cycles=1000)
        assert speedup(fast, base) == pytest.approx(2.0)

    def test_perf_per_watt_ratio(self):
        base = make_result(cycles=2000, gpu_power=50)
        fast = make_result(scheme="PAE", cycles=1000, gpu_power=50)
        # Same power, double speed -> double perf/W.
        assert perf_per_watt_ratio(fast, base) == pytest.approx(2.0)

    def test_different_workloads_rejected(self):
        a = make_result(workload="MT")
        b = make_result(workload="LU")
        with pytest.raises(ValueError):
            speedup(a, b)


class TestValidation:
    def test_zero_cycles_rejected(self):
        with pytest.raises(ValueError):
            make_result(cycles=0)
