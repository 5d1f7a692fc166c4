"""Tests for workload trace import/export."""

import numpy as np
import pytest

from repro.workloads.base import KernelTrace, TBTrace, Workload, WarpTrace
from repro.workloads.io import load_workload, save_workload
from repro.workloads.suite import build_workload


def _roundtrip(workload, tmp_path):
    path = tmp_path / "trace.npz"
    save_workload(workload, path)
    return load_workload(path)


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
                assert tb_rest.n_warps == tb_orig.n_warps
                for w_orig, w_rest in zip(tb_orig.warps, tb_rest.warps):
                    assert (w_rest.addresses == w_orig.addresses).all()
                    assert (w_rest.gaps == w_orig.gaps).all()
                    assert (w_rest.writes == w_orig.writes).all()

    def test_irregular_workload_roundtrips(self, tmp_path):
        tb0 = TBTrace(0, (
            WarpTrace.from_addresses(np.array([0, 128], dtype=np.uint64), gap=3),
            WarpTrace.from_addresses(np.array([4096], dtype=np.uint64), gap=7,
                                     writes=np.array([True])),
        ))
        tb5 = TBTrace(5, (WarpTrace.from_addresses(
            np.arange(3, dtype=np.uint64) * 256),))
        workload = Workload(
            "Custom", "CST",
            (KernelTrace("a", (tb0, tb5)), KernelTrace("b", (tb0,))),
            instructions_per_request=42.0,
            expected_valley=False,
            metadata={"source": "unit-test", "bits": (1, 2, 3)},
        )
        restored = _roundtrip(workload, tmp_path)
        assert restored.kernels[0].tbs[1].tb_id == 5
        assert restored.kernels[1].name == "b"
        assert restored.metadata["source"] == "unit-test"
        assert restored.metadata["bits"] == [1, 2, 3]
        assert restored.kernels[0].tbs[0].warps[1].writes[0]

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
        import json

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
