"""Tests for the 16-benchmark suite of Table II."""

import gc
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from repro.core import application_entropy_profile, has_parallel_bit_valley, hynix_gddr5_map
from repro.workloads.base import TBTrace
from repro.workloads.suite import (
    ALL_BENCHMARKS,
    NON_VALLEY_BENCHMARKS,
    TABLE2,
    VALLEY_BENCHMARKS,
    build_suite,
    build_workload,
    dwt2d_kernel1,
    srad2_kernel1,
)

AMAP = hynix_gddr5_map()


class TestRegistry:
    def test_sixteen_benchmarks(self):
        assert len(ALL_BENCHMARKS) == 16
        assert len(VALLEY_BENCHMARKS) == 10
        assert len(NON_VALLEY_BENCHMARKS) == 6

    def test_table2_complete(self):
        assert set(TABLE2) == set(ALL_BENCHMARKS)

    def test_unknown_benchmark(self):
        with pytest.raises(ValueError):
            build_workload("NOPE")

    def test_build_suite_subset(self):
        suite = build_suite(scale=0.25, names=("MT", "BFS"))
        assert set(suite) == {"MT", "BFS"}


@pytest.mark.parametrize("abbr", ALL_BENCHMARKS)
class TestEveryBenchmark:
    def test_builds_and_is_well_formed(self, abbr):
        wl = build_workload(abbr, scale=0.25)
        assert wl.abbreviation == abbr
        assert wl.n_requests > 100
        assert wl.n_tbs >= 4
        # All addresses 128 B aligned and inside the 30-bit space.
        for kernel in wl.kernels:
            for tb in kernel.tbs:
                addrs = tb.addresses
                assert (addrs % 128 == 0).all()
                assert (addrs < (1 << 30)).all()

    def test_deterministic(self, abbr):
        a = build_workload(abbr, scale=0.25)
        b = build_workload(abbr, scale=0.25)
        assert a.n_requests == b.n_requests
        first_a = a.kernels[0].tbs[0].addresses
        first_b = b.kernels[0].tbs[0].addresses
        assert (first_a == first_b).all()

    def test_apki_matches_table2(self, abbr):
        wl = build_workload(abbr, scale=0.25)
        assert wl.apki == pytest.approx(TABLE2[abbr][0], rel=1e-6)

    def test_scale_grows_trace(self, abbr):
        small = build_workload(abbr, scale=0.25)
        large = build_workload(abbr, scale=1.0)
        assert large.n_requests >= small.n_requests


class TestValleyClassification:
    """The paper's Table II grouping must emerge from our entropy metric."""

    @pytest.mark.parametrize("abbr", VALLEY_BENCHMARKS)
    def test_valley_benchmarks_have_valleys(self, abbr):
        wl = build_workload(abbr)
        profile = application_entropy_profile(
            wl.entropy_kernel_inputs(), AMAP, window=12, label=abbr
        )
        assert has_parallel_bit_valley(profile), abbr

    @pytest.mark.parametrize("abbr", NON_VALLEY_BENCHMARKS)
    def test_non_valley_benchmarks_do_not(self, abbr):
        wl = build_workload(abbr)
        profile = application_entropy_profile(
            wl.entropy_kernel_inputs(), AMAP, window=12, label=abbr
        )
        assert not has_parallel_bit_valley(profile), abbr


class TestKernelViews:
    def test_srad2_kernel1_is_one_kernel(self):
        full = build_workload("SRAD2", scale=0.5)
        k1 = srad2_kernel1(scale=0.5)
        assert k1.n_kernels == 1
        assert full.n_kernels > 1
        assert k1.kernels[0].name == full.kernels[0].name

    def test_dwt2d_kernel1_narrower_valley_than_app(self):
        """Fig. 5i vs 5j: the app valley is broader than the kernel's."""
        from repro.core import find_entropy_valleys

        full = build_workload("DWT2D")
        k1 = dwt2d_kernel1()
        p_full = application_entropy_profile(full.entropy_kernel_inputs(), AMAP, 12)
        p_k1 = application_entropy_profile(k1.entropy_kernel_inputs(), AMAP, 12)

        def widest(profile):
            valleys = find_entropy_valleys(profile)
            return max((hi - lo for lo, hi in valleys), default=0)

        assert widest(p_full) >= widest(p_k1)


class TestStructure:
    def test_lu_models_many_kernels(self):
        wl = build_workload("LU", scale=0.5)
        assert wl.n_kernels >= 4
        assert wl.metadata["paper_kernels"] == 1022

    def test_hs_is_single_kernel(self):
        assert build_workload("HS").n_kernels == 1

    def test_mt_has_writes(self):
        wl = build_workload("MT", scale=0.25)
        writes = sum(int(tb.writes.sum()) for k in wl.kernels for tb in k.tbs)
        assert writes > 0

    def test_compute_bound_hs_has_large_gaps(self):
        hs = build_workload("HS")
        mum = build_workload("MUM")
        hs_gap = hs.kernels[0].tbs[0].gaps[0]
        mum_gap = mum.kernels[0].tbs[0].gaps[0]
        assert hs_gap > 10 * mum_gap


def _tbs(suite):
    return [tb for w in suite.values() for k in w.kernels for tb in k.tbs]


class TestTraceFootprint:
    """A suite holds its ops, not per-warp wrappers around them."""

    def test_no_object_type_outnumbers_the_tbs(self):
        build_suite(scale=0.25)  # warm imports and module-level memos
        gc.collect()
        before = Counter(type(o) for o in gc.get_objects())
        suite = build_suite(scale=0.25)
        gc.collect()
        grown = Counter(type(o) for o in gc.get_objects())
        grown.subtract(before)
        tbs = _tbs(suite)
        # Enough warps per TB that a per-warp object would show.
        assert sum(tb.n_warps for tb in tbs) > 2 * len(tbs)
        assert grown[TBTrace] == len(tbs)
        assert max(grown.values()) == len(tbs), grown.most_common(3)

    def test_traced_bytes_stay_near_the_column_bytes(self):
        build_suite(scale=0.1)  # warm imports and module-level memos
        gc.collect()
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            suite = build_suite(scale=0.5)
            gc.collect()
            traced = tracemalloc.get_traced_memory()[0] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        columns = sum(
            tb.addresses.nbytes + tb.gaps.nbytes + tb.writes.nbytes
            for tb in _tbs(suite)
        )
        assert traced <= 2.5 * columns, (traced, columns)
