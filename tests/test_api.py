"""Tests for the stable repro.api facade."""

import numpy as np
import pytest

from repro import api
from repro.runner import SweepGrid, SweepRunner
from repro.specs import SchemeSpec, WorkloadSpec

SCALE = 0.25


@pytest.fixture(scope="module")
def runner():
    """One shared runner per module so simulations are memoized."""
    return SweepRunner()


class TestSimulate:
    def test_names_and_specs_agree(self, runner):
        by_name = api.simulate("SP", "PAE", scale=SCALE, runner=runner)
        by_spec = api.simulate(
            WorkloadSpec.registered("SP"), SchemeSpec.registered("PAE"),
            scale=SCALE, runner=runner,
        )
        assert by_name.to_dict() == by_spec.to_dict()

    def test_memoized_across_calls(self, runner):
        api.simulate("SP", "BASE", scale=SCALE, runner=runner)
        before = runner.stats.executed
        api.simulate("SP", "BASE", scale=SCALE, runner=runner)
        assert runner.stats.executed == before


class TestCompare:
    def test_base_inserted_and_metrics_present(self, runner):
        table = api.compare("SP", ["PAE"], scale=SCALE, runner=runner)
        assert list(table) == ["BASE", "PAE"]
        assert table["BASE"]["speedup"] == 1.0
        assert table["PAE"]["speedup"] > 1.0
        for metrics in table.values():
            assert {"cycles", "speedup", "row_hit_rate",
                    "channel_parallelism", "dram_power_watts",
                    "perf_per_watt"} <= set(metrics)

    def test_custom_scheme_compares(self, runner):
        custom = SchemeSpec.stages(
            "MYX", [{"op": "xor", "target": 8, "sources": [20, 24]}]
        )
        table = api.compare("SP", ["PAE", custom], scale=SCALE, runner=runner)
        assert "MYX" in table

    def test_base_impostor_rejected(self, runner):
        impostor = SchemeSpec.stages(
            "BASE", [{"op": "swap", "a": 8, "b": 20}]
        )
        with pytest.raises(ValueError, match="BASE"):
            api.compare("SP", [impostor], scale=SCALE, runner=runner)

    def test_colliding_names_rejected(self, runner):
        a = SchemeSpec.stages("MYX", [{"op": "swap", "a": 8, "b": 20}])
        b = SchemeSpec.stages("MYX", [{"op": "swap", "a": 9, "b": 21}])
        with pytest.raises(ValueError, match="name"):
            api.run_matrix(["SP"], [a, b], scale=SCALE, runner=runner)


class TestSweep:
    def test_grid_kwargs_and_scenario_agree(self, runner):
        kw = api.sweep(
            benchmarks=["SP"], schemes=["PAE"], scale=SCALE, runner=runner
        )
        grid = SweepGrid(benchmarks=("SP",), schemes=("PAE",), scale=SCALE)
        by_grid = api.sweep(grid, runner=runner)
        by_dict = api.sweep(
            {"type": "scenario_spec", "benchmarks": ["SP"],
             "schemes": ["PAE"], "scale": SCALE},
            runner=runner,
        )
        assert kw == by_grid == by_dict
        assert kw["derived"]["speedup"]["PAE"]["SP"] > 1.0

    def test_shard_report(self, runner):
        partial = api.sweep(
            benchmarks=["SP"], schemes=["PAE"], scale=SCALE,
            shard="1/2", runner=runner,
        )
        assert partial["format"].startswith("repro-sweep-shard/")
        assert partial["shard"] == {"index": 1, "count": 2}

    def test_rejects_bad_scenario_type(self, runner):
        with pytest.raises(TypeError, match="scenario"):
            api.sweep(42, runner=runner)

    def test_rejects_axis_keywords_with_a_scenario(self, runner):
        scenario = {"benchmarks": ["SP"], "schemes": ["PAE"], "scale": 0.1}
        with pytest.raises(TypeError, match="seeds, scale, fidelity"):
            api.sweep(scenario, scale=0.5, seeds=(3,), fidelity="auto",
                      runner=runner)
        with pytest.raises(TypeError, match="benchmarks"):
            api.sweep(SweepGrid(benchmarks=("SP",)), benchmarks=["MT"],
                      runner=runner)


class TestWorkerDefaults:
    def test_repro_workers_env_honored(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        executor, owned = api._runner(None, None, None)
        assert owned and executor.workers == 3
        monkeypatch.delenv("REPRO_WORKERS")
        executor, owned = api._runner(None, None, None)
        assert executor.workers == 1  # serial without the env var

    def test_explicit_workers_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        executor, _ = api._runner(None, 2, None)
        assert executor.workers == 2


class TestEntropyProfile:
    def test_base_profile(self):
        profile = api.entropy_profile("SP", scale=SCALE)
        assert profile.values.shape == (30,)

    def test_mapped_profile_raises_parallel_entropy(self):
        base = api.entropy_profile("MT", scale=SCALE)
        mapped = api.entropy_profile("MT", scheme="PAE", scale=SCALE)
        assert (
            mapped.parallel_bit_entropy() > base.parallel_bit_entropy()
        )

    def test_custom_spec_profile(self):
        recipe = {
            "kernels": [
                {"pattern": "column_walk", "tbs": 16, "pitch": 4096,
                 "rows": 12, "col_byte": 128},
            ],
        }
        spec = WorkloadSpec.pattern("CW", recipe)
        profile = api.entropy_profile(spec, scale=1.0)
        assert profile.label == "CW"
