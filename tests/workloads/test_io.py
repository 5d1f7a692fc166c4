"""Tests for workload trace import/export."""

import json

import numpy as np
import pytest

from repro.workloads.base import KernelTrace, TBTrace, Workload
from repro.workloads.io import load_workload, save_workload
from repro.workloads.suite import build_workload


def _roundtrip(workload, tmp_path):
    path = tmp_path / "trace.npz"
    save_workload(workload, path)
    return load_workload(path)


def _ops(workload):
    """Every op of *workload* with its kernel, TB and warp, in order."""
    ops = []
    for k_index, kernel in enumerate(workload.kernels):
        for tb in kernel.tbs:
            warps = np.searchsorted(tb.warp_ends, np.arange(tb.n_requests),
                                    side="right")
            ops.extend(zip(
                [k_index] * tb.n_requests, [tb.tb_id] * tb.n_requests,
                warps.tolist(), tb.addresses.tolist(), tb.gaps.tolist(),
                tb.writes.tolist(),
            ))
    return ops


def _irregular_workload():
    """Two kernels; TBs of several, uneven and empty warps."""
    tb0 = TBTrace(0, [0, 128, 4096], [3, 3, 7], [False, False, True], [2, 3])
    tb5 = TBTrace(5, np.arange(3, dtype=np.uint64) * 256,
                  np.zeros(3, dtype=np.int64), np.zeros(3, dtype=bool),
                  [0, 3, 3])
    return Workload(
        "Custom", "CST",
        (KernelTrace("a", (tb0, tb5)), KernelTrace("b", (tb0,))),
        instructions_per_request=42.0,
        expected_valley=False,
        metadata={"source": "unit-test", "bits": (1, 2, 3)},
    )


def _rewrite(path, **changes):
    """Rewrite the arrays of trace file *path*, applying *changes*."""
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    for name, change in changes.items():
        change(arrays[name])
    np.savez_compressed(path, **arrays)


class TestRoundtrip:
    def test_benchmark_roundtrips_exactly(self, tmp_path):
        original = build_workload("MT", scale=0.25)
        restored = _roundtrip(original, tmp_path)
        assert restored.abbreviation == original.abbreviation
        assert restored.n_kernels == original.n_kernels
        assert restored.n_tbs == original.n_tbs
        assert restored.n_requests == original.n_requests
        assert restored.instructions_per_request == original.instructions_per_request
        for k_orig, k_rest in zip(original.kernels, restored.kernels):
            assert k_rest.name == k_orig.name
            for tb_orig, tb_rest in zip(k_orig.tbs, k_rest.tbs):
                assert tb_rest.tb_id == tb_orig.tb_id
                assert (tb_rest.warp_ends == tb_orig.warp_ends).all()
                assert (tb_rest.addresses == tb_orig.addresses).all()
                assert (tb_rest.gaps == tb_orig.gaps).all()
                assert (tb_rest.writes == tb_orig.writes).all()

    def test_irregular_workload_roundtrips(self, tmp_path):
        workload = _irregular_workload()
        restored = _roundtrip(workload, tmp_path)
        assert _ops(restored) == _ops(workload)
        assert restored.kernels[0].tbs[1].tb_id == 5
        assert restored.kernels[0].tbs[1].warp_ends.tolist() == [0, 3, 3]
        assert restored.kernels[1].name == "b"
        assert restored.metadata["source"] == "unit-test"
        assert restored.metadata["bits"] == [1, 2, 3]
        assert restored.kernels[0].tbs[0].writes[2]

    def test_version_1_file_loads_into_the_same_ops(self, tmp_path):
        """A file written straight in the version-1 layout, warp by warp,
        without save_workload."""
        workload = _irregular_workload()
        header = {
            "version": 1, "name": "Custom", "abbreviation": "CST",
            "instructions_per_request": 42.0, "expected_valley": False,
            "description": "", "kernel_names": ["a", "b"],
            "metadata": {"source": "unit-test", "bits": [1, 2, 3]},
        }
        path = tmp_path / "v1.npz"
        np.savez_compressed(
            path,
            header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
            gaps=np.array([3, 3, 7, 0, 0, 0, 3, 3, 7], dtype=np.int64),
            addresses=np.array([0, 128, 4096, 0, 256, 512, 0, 128, 4096],
                               dtype=np.uint64),
            writes=np.array([0, 0, 1, 0, 0, 0, 0, 0, 1], dtype=bool),
            warp_kernel=np.array([0, 0, 0, 0, 0, 1, 1], dtype=np.int64),
            warp_tb=np.array([0, 0, 5, 5, 5, 0, 0], dtype=np.int64),
            warp_lengths=np.array([2, 1, 0, 3, 0, 2, 1], dtype=np.int64),
        )
        assert _ops(load_workload(path)) == _ops(workload)

    def test_warps_are_grouped_by_kernel_and_tb(self, tmp_path):
        """Index tables may list a TB's warps apart and TBs out of
        order: warps join their TB in file order, TBs ascend."""
        path = tmp_path / "scattered.npz"
        header = {
            "version": 1, "name": "S", "abbreviation": "S",
            "instructions_per_request": 1.0, "expected_valley": False,
            "kernel_names": ["k"],
        }
        np.savez_compressed(
            path,
            header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
            gaps=np.arange(5, dtype=np.int64),
            addresses=np.arange(5, dtype=np.uint64) * 128,
            writes=np.zeros(5, dtype=bool),
            warp_kernel=np.zeros(3, dtype=np.int64),
            warp_tb=np.array([7, 2, 7], dtype=np.int64),
            warp_lengths=np.array([2, 1, 2], dtype=np.int64),
        )
        tb2, tb7 = load_workload(path).kernels[0].tbs
        assert (tb2.tb_id, tb2.gaps.tolist(), tb2.warp_ends.tolist()) == (
            2, [2], [1])
        assert (tb7.tb_id, tb7.gaps.tolist(), tb7.warp_ends.tolist()) == (
            7, [0, 1, 3, 4], [2, 4])

    def test_simulation_identical_after_roundtrip(self, tmp_path):
        from repro.core import hynix_gddr5_map
        from repro.registry import make_scheme
        from repro.sim.gpu_system import simulate

        original = build_workload("SP", scale=0.25)
        restored = _roundtrip(original, tmp_path)
        scheme = make_scheme("PAE", hynix_gddr5_map(), seed=0)
        a = simulate(original, scheme)
        b = simulate(restored, scheme)
        assert a.cycles == b.cycles
        assert a.dram_activates == b.dram_activates

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.npz"
        save_workload(build_workload("SP", scale=0.25), path)
        # Tamper with the header version.
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        header = json.loads(bytes(arrays["header"]).decode())
        header["version"] = 99
        arrays["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValueError, match="version"):
            load_workload(path)


class TestMalformedFiles:
    """Index tables that do not tile the columns are refused, naming
    the field; SP @0.1 has 198 ops in 66 warps of 4, 4 and 1 ops."""

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "sp.npz"
        save_workload(build_workload("SP", scale=0.1), path)
        return path

    def test_a_too_long_last_warp(self, path):
        def grow_last(lengths):
            lengths[-1] += 5
        _rewrite(path, warp_lengths=grow_last)
        with pytest.raises(ValueError, match="warp_lengths sum to 203"):
            load_workload(path)

    def test_a_too_short_first_warp(self, path):
        def shrink_first(lengths):
            lengths[0] -= 3
        _rewrite(path, warp_lengths=shrink_first)
        with pytest.raises(ValueError, match="warp_lengths sum to 195"):
            load_workload(path)

    def test_a_negative_length_the_sum_hides(self, path):
        def shift(lengths):
            assert lengths[2] == 1
            lengths[2] -= 2
            lengths[3] += 2
        _rewrite(path, warp_lengths=shift)
        with pytest.raises(ValueError, match="warp_lengths holds a negative"):
            load_workload(path)

    def test_a_kernel_index_out_of_range(self, path):
        def corrupt(kernels):
            kernels[0] = 99
        _rewrite(path, warp_kernel=corrupt)
        with pytest.raises(ValueError, match="warp_kernel"):
            load_workload(path)

    def test_columns_of_different_lengths(self, tmp_path, path):
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["gaps"] = arrays["gaps"][:-1]
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValueError, match="gaps 197"):
            load_workload(path)
