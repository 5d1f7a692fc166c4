"""Tests for the parallel sweep runner: ordering, caching, the shared
single-flight memo, determinism.

Small scales keep these fast; the full-scale behaviour is exercised by
``benchmarks/test_sweep_runner.py``.
"""

import dataclasses
import gc
import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

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


class GatedContext(RunContext):
    """Counts execute() calls per config hash; every call signals
    ``entered`` and waits for ``gate``, and the first *failures* calls
    raise."""

    def __init__(self, failures=0):
        super().__init__()
        self.lock = threading.Lock()
        self.counts = {}
        self.failures = failures
        self.entered = threading.Event()
        self.gate = threading.Event()

    def execute(self, config):
        key = config.config_hash()
        with self.lock:
            self.counts[key] = self.counts.get(key, 0) + 1
            fail = sum(self.counts.values()) <= self.failures
        self.entered.set()
        assert self.gate.wait(timeout=60), "test never released the gate"
        if fail:
            raise RuntimeError("injected failure")
        return super().execute(config)


class StubContext(RunContext):
    """Returns a fresh copy of *template* per execute() call, counting
    calls per config hash (thread-safe); simulates nothing."""

    def __init__(self, template):
        super().__init__()
        self.template = template
        self.lock = threading.Lock()
        self.counts = {}

    def execute(self, config):
        key = config.config_hash()
        with self.lock:
            self.counts[key] = self.counts.get(key, 0) + 1
        time.sleep(0.001)  # widen the window in which others must wait
        return dataclasses.replace(self.template, metadata={"key": key})


def shared_runners(**kwargs):
    """Two runners sharing one memo, as a RunnerPool's runners do."""
    first, second = SweepRunner(**kwargs), SweepRunner(**kwargs)
    second._memory = first._memory
    return first, second


def wait_until(predicate, timeout=60):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


class TestSharedMemo:
    """The memo is single-flight across the runners that share it."""

    def test_waiter_reuses_the_leaders_result(self):
        context = GatedContext()
        first, second = shared_runners(context=context)
        config = RunConfig("SP", "BASE", scale=SCALE)
        other = RunConfig("SP", "PAE", scale=SCALE)
        with ThreadPoolExecutor(2) as threads:
            leader = threads.submit(first.run_one, config)
            assert context.entered.wait(timeout=60)  # leader in execute()
            waiter = threads.submit(second.run_many, [config, other])
            # Registered as a waiter before the leader may finish.
            wait_until(lambda: second.stats.coalesced == 1)
            context.gate.set()
            result = leader.result(timeout=60)
            assert waiter.result(timeout=60)[0] is result
        # One execution per key: the distinct key ran on the second
        # runner, the shared one only on the first.
        assert context.counts == {
            config.config_hash(): 1, other.config_hash(): 1,
        }
        assert first.stats.executed == 1
        assert second.stats.executed == 1
        assert second.stats.coalesced == 1
        assert first._memory.in_flight() == 0
        assert first.cached_runs() == 2

    def test_quarantined_config_leaves_the_memo(self):
        context = GatedContext(failures=1)
        context.gate.set()
        first, second = shared_runners(context=context)
        config = RunConfig("SP", "BASE", scale=SCALE)
        outcome = first.run_outcomes([config])
        assert outcome.results == [None]
        assert [f.kind for f in outcome.failures] == ["exception"]
        assert first._memory.in_flight() == 0
        assert first.cached_runs() == 0
        # The next call, on either runner, executes the config again.
        assert second.run_one(config).workload == "SP"
        assert context.counts == {config.config_hash(): 2}
        assert second.stats.executed == 1

    def test_raising_leader_still_resolves_its_waiter(self):
        context = GatedContext()
        first, second = shared_runners(context=context)

        def crash(configs):
            context.entered.set()
            assert context.gate.wait(timeout=60)
            raise RuntimeError("leader crashed")

        first._execute = crash
        config = RunConfig("SP", "BASE", scale=SCALE)
        with ThreadPoolExecutor(2) as threads:
            leader = threads.submit(first.run_one, config)
            assert context.entered.wait(timeout=60)
            waiter = threads.submit(second.run_outcomes, [config])
            wait_until(lambda: second.stats.coalesced == 1)
            context.gate.set()
            with pytest.raises(RuntimeError, match="leader crashed"):
                leader.result(timeout=60)
            outcome = waiter.result(timeout=60)
        assert outcome.results == [None]
        assert [f.kind for f in outcome.failures] == ["exception"]
        assert "leading run raised" in outcome.failures[0].error
        assert first._memory.in_flight() == 0
        assert context.counts == {}

    def test_stress_many_runners_execute_each_key_once(self):
        template = SweepRunner().run_one(RunConfig("SP", "BASE", scale=SCALE))
        configs = [
            RunConfig("SP", "BASE", scale=SCALE, seed=seed)
            for seed in range(24)
        ]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(5):
                context = StubContext(template)
                runners = [SweepRunner(context=context) for _ in range(8)]
                for runner in runners[1:]:
                    runner._memory = runners[0]._memory
                rng = random.Random(round_)
                batches = [rng.choices(configs, k=16) for _ in runners]
                start = threading.Barrier(len(runners))
                outcomes = [None] * len(runners)

                def drive(i):
                    start.wait(timeout=60)
                    outcomes[i] = runners[i].run_outcomes(batches[i])

                threads = [
                    threading.Thread(target=drive, args=(i,), daemon=True)
                    for i in range(len(runners))
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive(), "a runner hung"

                requested = {c.config_hash() for b in batches for c in b}
                assert context.counts == {key: 1 for key in requested}
                # Every runner holds the leader's own result object.
                seen = {}
                for batch, outcome in zip(batches, outcomes):
                    assert not outcome.failures
                    for config, result in zip(batch, outcome.results):
                        key = config.config_hash()
                        assert result.metadata == {"key": key}
                        assert seen.setdefault(key, result) is result
                stats = [runner.stats for runner in runners]
                assert sum(st.executed for st in stats) == len(requested)
                assert all(
                    st.requested
                    == st.memory_hits + st.executed + st.coalesced
                    for st in stats
                )
                assert runners[0]._memory.in_flight() == 0
        finally:
            sys.setswitchinterval(switch)
