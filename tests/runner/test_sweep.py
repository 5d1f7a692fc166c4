"""Tests for the parallel sweep runner: ordering, caching, the memo,
determinism.

Small scales keep these fast; the full-scale behaviour is exercised by
``benchmarks/test_sweep_runner.py``.
"""

import gc

import pytest

from repro.analysis.experiments import ExperimentRunner
from repro.runner import (
    RunConfig,
    SweepGrid,
    SweepRunner,
    render_report,
    sweep_report,
)
from repro.runner.worker import RunContext
from repro.sim.gpu_system import GPUSystem

SCALE = 0.25


def small_configs():
    return [
        RunConfig("SP", "BASE", scale=SCALE),
        RunConfig("SP", "PAE", scale=SCALE),
        RunConfig("HS", "BASE", scale=SCALE),
    ]


class FailOnceContext(RunContext):
    """Counts execute() calls; the first one raises."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def execute(self, config):
        self.calls += 1
        if self.calls == 1:
            raise RuntimeError("injected failure")
        return super().execute(config)


class TestOrderingAndMemo:
    def test_results_in_input_order(self):
        runner = SweepRunner()
        configs = small_configs()
        results = runner.run_many(configs)
        assert [(r.workload, r.scheme) for r in results] == [
            ("SP", "BASE"), ("SP", "PAE"), ("HS", "BASE"),
        ]

    def test_duplicate_configs_run_once(self):
        runner = SweepRunner()
        config = RunConfig("SP", "BASE", scale=SCALE)
        results = runner.run_many([config, config, config])
        assert results[0] is results[1] is results[2]
        assert runner.stats.executed == 1
        assert runner.stats.memory_hits == 2

    def test_second_call_served_from_memo(self):
        runner = SweepRunner()
        first = runner.run_one(RunConfig("SP", "BASE", scale=SCALE))
        second = runner.run_one(RunConfig("SP", "BASE", scale=SCALE))
        assert first is second
        assert runner.stats.executed == 1

    def test_quarantined_config_leaves_the_memo(self):
        context = FailOnceContext()
        runner = SweepRunner(context=context)
        config = RunConfig("SP", "BASE", scale=SCALE)
        outcome = runner.run_outcomes([config])
        assert outcome.results == [None]
        assert [f.kind for f in outcome.failures] == ["exception"]
        assert runner.cached_runs() == 0
        # The next call executes the config again.
        assert runner.run_one(config).workload == "SP"
        assert context.calls == 2
        assert runner.stats.executed == 1
        assert runner.cached_runs() == 1


class TestDiskCache:
    def test_warm_runner_hits_disk(self, tmp_path):
        configs = small_configs()
        cold = SweepRunner(cache_dir=tmp_path)
        cold_results = cold.run_many(configs)
        assert cold.stats.executed == len(configs)

        warm = SweepRunner(cache_dir=tmp_path)
        warm_results = warm.run_many(configs)
        assert warm.stats.executed == 0
        assert warm.stats.cache_hits == len(configs)
        assert [r.to_dict() for r in warm_results] == \
            [r.to_dict() for r in cold_results]

    def test_config_change_invalidates(self, tmp_path):
        runner = SweepRunner(cache_dir=tmp_path)
        runner.run_one(RunConfig("SP", "BASE", scale=SCALE))
        fresh = SweepRunner(cache_dir=tmp_path)
        fresh.run_one(RunConfig("SP", "BASE", scale=SCALE, n_sms=8))
        assert fresh.stats.cache_hits == 0
        assert fresh.stats.executed == 1

    def test_corrupt_record_recomputed(self, tmp_path):
        config = RunConfig("SP", "BASE", scale=SCALE)
        runner = SweepRunner(cache_dir=tmp_path)
        expected = runner.run_one(config)
        runner.cache.path_for(config.config_hash()).write_text("garbage")
        fresh = SweepRunner(cache_dir=tmp_path)
        result = fresh.run_one(config)
        assert result.to_dict() == expected.to_dict()
        assert fresh.cache.stats.corrupt == 1
        # The record was rewritten and is healthy again.
        healed = SweepRunner(cache_dir=tmp_path)
        healed.run_one(config)
        assert healed.stats.cache_hits == 1


class TestDeterminism:
    def test_parallel_equals_serial(self):
        grid = SweepGrid(benchmarks=("SP", "HS"), schemes=("PAE",), scale=SCALE)
        serial = render_report(sweep_report(grid, SweepRunner(workers=1)))
        parallel = render_report(sweep_report(grid, SweepRunner(workers=2)))
        assert serial == parallel

    def test_cold_equals_warm_report(self, tmp_path):
        grid = SweepGrid(benchmarks=("SP",), schemes=("PM",), scale=SCALE)
        cold = render_report(sweep_report(grid, SweepRunner(cache_dir=tmp_path)))
        warm = render_report(sweep_report(grid, SweepRunner(cache_dir=tmp_path)))
        assert cold == warm

    def test_matches_experiment_runner(self):
        """The facade and the runner must agree run for run."""
        facade = ExperimentRunner(scale=SCALE)
        direct = SweepRunner().run_one(RunConfig("SP", "PAE", scale=SCALE))
        assert facade.run("SP", "PAE").to_dict() == direct.to_dict()


class TestReportShape:
    def test_report_contents(self):
        grid = SweepGrid(benchmarks=("SP",), schemes=("PAE",), scale=SCALE)
        report = sweep_report(grid, SweepRunner())
        assert report["format"].startswith("repro-sweep-report/")
        assert len(report["runs"]) == 2  # BASE + PAE
        derived = report["derived"]
        assert derived["speedup"]["BASE"]["SP"] == pytest.approx(1.0)
        assert derived["speedup"]["PAE"]["SP"] > 1.0
        assert derived["perf_per_watt"]["PAE"]["SP"] > 1.0
        assert set(derived["hmean_speedup"]) == {"BASE", "PAE"}

    def test_multi_axis_variants_labeled(self):
        grid = SweepGrid(
            benchmarks=("SP",), schemes=("PM",), seeds=(0, 1), scale=SCALE
        )
        report = sweep_report(grid, SweepRunner())
        variants = set(report["derived"]["speedup"])
        assert variants == {
            "BASE@seed=0,n_sms=12,memory=gddr5",
            "BASE@seed=1,n_sms=12,memory=gddr5",
            "PM@seed=0,n_sms=12,memory=gddr5",
            "PM@seed=1,n_sms=12,memory=gddr5",
        }


class TestProgress:
    """The ETA extrapolates the sweep's own measured completion rate."""

    @pytest.mark.parametrize("workers", [1, 2], ids=["inline", "pool"])
    def test_eta_follows_measured_rate(self, workers):
        ticks = []
        with SweepRunner(workers=workers, progress=ticks.append) as runner:
            runner.run_many(small_configs())
        assert ticks and ticks[-1].done == ticks[-1].total == 3
        for tick in ticks:
            assert tick.eta_seconds == pytest.approx(
                tick.elapsed_seconds * (tick.total - tick.done) / tick.done
            )
        assert ticks[-1].eta_seconds == 0


class TestMemory:
    @pytest.mark.parametrize("fidelity", ["exact", "auto"])
    def test_a_sweep_leaks_no_machine(self, tmp_path, fidelity):
        """An inline sweep keeps no finished machine alive: not in the
        memo, the progress callback or the cache put.  GC is disabled,
        so reference counting alone must free each one."""
        grid = SweepGrid(benchmarks=("MT", "SC"), schemes=("BASE", "PAE"),
                         scale=0.1, fidelity=fidelity)
        ticks = []
        runner = SweepRunner(workers=1, cache_dir=tmp_path,
                             progress=ticks.append)

        def machines():
            return sum(type(obj) is GPUSystem for obj in gc.get_objects())

        gc.collect()
        before = machines()
        gc.disable()
        try:
            outcome = runner.run_outcomes(grid.configs())
            assert machines() == before
        finally:
            gc.enable()
        assert not outcome.failures and runner.stats.executed == len(ticks) == 4
