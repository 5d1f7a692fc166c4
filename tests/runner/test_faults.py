"""Fault-injection tests for the sweep runner's failure handling.

Every recovery path — quarantine on the first failure, timeout, pool
rebuild, crash probing, cache-fault degradation — is driven
deterministically through :class:`repro.runner.FaultPlan` injection,
and every test asserts the core contract: **surviving results are
byte-identical to a fault-free sweep**.  Faults decide whether a
result is produced, never what it is.
"""

import json
import math
from collections import Counter

import pytest

from repro.cli import main
from repro.runner import (
    FaultPlan,
    FaultSpecError,
    ResultCache,
    RunConfig,
    RunContext,
    RunFailure,
    ShardSpec,
    SweepFailure,
    SweepGrid,
    SweepRunner,
    merge_shard_reports,
    shard_report,
    sweep_report,
)
from repro.specs import SchemeSpec, WorkloadSpec

SCALE = 0.25

SP_PM = RunConfig(
    WorkloadSpec.from_value("SP"), SchemeSpec.from_value("PM"), scale=SCALE
)

GRID = SweepGrid(benchmarks=("SP", "MT"), schemes=("PM",), scale=SCALE)


@pytest.fixture(scope="module")
def clean_report():
    """The fault-free report every surviving result must match."""
    with SweepRunner(workers=2) as runner:
        return sweep_report(GRID, runner)


def runs_by_key(report):
    return {
        json.dumps(run["config"], sort_keys=True): run["result"]
        for run in report["runs"]
    }


def assert_survivors_identical(report, clean):
    """Every run present in *report* matches the clean sweep exactly."""
    clean_runs = runs_by_key(clean)
    survivors = runs_by_key(report)
    assert survivors  # a report with zero survivors proves nothing
    for key, result in survivors.items():
        assert result == clean_runs[key]


class TestFaultSpec:
    def test_parse_roundtrip_and_wildcards(self):
        plan = FaultPlan.parse("raise@SP/PM; exit@*/PAE:code=9")
        assert plan.spec == "raise@SP/PM; exit@*/PAE:code=9"
        first, second = plan.clauses
        assert (first.mode, first.benchmark, first.scheme) == (
            "raise", "SP", "PM",
        )
        assert second.benchmark is None and second.code == 9

    def test_blank_specs_mean_no_plan(self):
        assert FaultPlan.parse(None) is None
        assert FaultPlan.parse("") is None
        assert FaultPlan.parse("  ;  ") is None

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "raise@SP/PM")
        assert FaultPlan.from_env().clauses[0].benchmark == "SP"
        monkeypatch.delenv("REPRO_FAULT_INJECT")
        assert FaultPlan.from_env() is None

    @pytest.mark.parametrize("bad", [
        "explode@SP/PM",          # unknown mode
        "raise@SP",               # target missing /SCHEME
        "raise@SP/PM:times",      # parameter without value
        "raise@rate=1.5",         # rate out of range
        "raise@SP/PM:rate=0.5",   # rate in params, not target
        "raise@SP/PM:bogus=1",    # unknown parameter
        "hang@SP/PM:seconds=abc",  # values that do not parse
        "exit@SP/PM:code=1.5",
        "raise@rate=0.5",         # no rate clauses: a run is pure
        "raise@SP/PM:times=2",    # no transient faults either
        "raise@SP/PM:salt=s",
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(FaultSpecError):
            FaultPlan.parse(bad)


class RaisingContext(RunContext):
    """Counts execute() calls per BENCHMARK/SCHEME; SP/PM raises."""

    def __init__(self):
        super().__init__()
        self.calls = Counter()

    def execute(self, config):
        name = f"{config.benchmark_name}/{config.scheme_name}"
        self.calls[name] += 1
        if name == "SP/PM":
            raise RuntimeError("deterministic failure")
        return super().execute(config)


class TestQuarantine:
    def test_failing_config_runs_once(self):
        context = RaisingContext()
        with SweepRunner(workers=1, context=context, faults="") as runner:
            outcome = runner.run_outcomes(GRID.configs())
        assert context.calls["SP/PM"] == 1
        assert [f.kind for f in outcome.failures] == ["exception"]
        assert outcome.failures[0].error == "RuntimeError: deterministic failure"
        assert runner.stats.failed == 1
        assert runner.stats.executed == len(GRID.configs()) - 1

    def test_poison_config_quarantined_exactly_once(self, clean_report):
        with SweepRunner(workers=2, faults="raise@SP/PM") as runner:
            report = sweep_report(GRID, runner, strict=False)
        assert len(report["failures"]) == 1
        failure = report["failures"][0]
        assert failure["benchmark"] == "SP" and failure["scheme"] == "PM"
        assert failure["kind"] == "exception"
        assert "attempts" not in failure
        assert "InjectedFault" in failure["error"]
        assert runner.stats.failed == 1
        # Healthy configs all completed, byte-identical to fault-free.
        assert len(report["runs"]) == len(clean_report["runs"]) - 1
        assert_survivors_identical(report, clean_report)
        # Derived tables skip the poisoned pair but keep its siblings.
        assert "SP" not in report["derived"]["speedup"].get("PM", {})
        assert "MT" in report["derived"]["speedup"]["PM"]

    def test_inline_quarantine_matches_pool(self):
        with SweepRunner(workers=1, faults="raise@SP/PM") as runner:
            outcome = runner.run_outcomes(GRID.configs())
        assert len(outcome.failures) == 1
        assert "attempts" not in outcome.failures[0].to_dict()
        assert sum(r is None for r in outcome.results) == 1

    def test_strict_run_many_raises_after_completion(self):
        with SweepRunner(workers=2, faults="raise@SP/PM") as runner:
            with pytest.raises(SweepFailure) as excinfo:
                runner.run_many(GRID.configs())
        assert len(excinfo.value.failures) == 1
        assert "SP/PM [exception]: InjectedFault" in str(excinfo.value)
        # Fail-at-the-end: the healthy configs did execute first.
        assert runner.stats.executed == len(GRID.configs()) - 1

    def test_failed_config_not_memoized(self):
        """A quarantined config runs again in a later call."""
        runner = SweepRunner(workers=1, faults="raise@SP/PM")
        outcome = runner.run_outcomes(GRID.configs())
        assert len(outcome.failures) == 1
        runner.faults = None  # the fault is lifted
        results = runner.run_many(GRID.configs())
        assert all(r is not None for r in results)

    def test_poison_exit_isolated_by_probing(self):
        """A poison config among the futures a dead pool took down is
        pinned by probing them one at a time and quarantined; a suspect
        that succeeds alone is a result, not a failure."""
        grid = SweepGrid(benchmarks=("SP", "MT", "HS"), schemes=("PM",),
                         scale=SCALE)
        with SweepRunner(workers=2) as runner:
            clean = sweep_report(grid, runner)
        with SweepRunner(workers=2, faults="exit@MT/PM") as runner:
            report = sweep_report(grid, runner, strict=False)
        assert [f["benchmark"] for f in report["failures"]] == ["MT"]
        assert report["failures"][0]["kind"] == "worker-crash"
        assert "attempts" not in report["failures"][0]
        assert len(report["runs"]) == len(grid.configs()) - 1
        assert runner.stats.executed == len(grid.configs()) - 1
        assert_survivors_identical(report, clean)


class TestTimeout:
    def test_hung_run_times_out_and_peers_survive(self, clean_report):
        with SweepRunner(workers=2, timeout=2.0,
                         faults="hang@SP/BASE:seconds=60") as runner:
            report = sweep_report(GRID, runner, strict=False)
        assert len(report["failures"]) == 1
        failure = report["failures"][0]
        assert failure["kind"] == "timeout"
        assert failure["benchmark"] == "SP" and failure["scheme"] == "BASE"
        assert "attempts" not in failure
        assert_survivors_identical(report, clean_report)

    @pytest.mark.parametrize("timeout", [0.0, -1.0, math.inf, math.nan])
    def test_timeout_must_be_positive_and_finite(self, timeout):
        with pytest.raises(ValueError, match="positive and finite"):
            SweepRunner(timeout=timeout)


class TestCacheFaults:
    CONFIG = SP_PM

    def test_corrupt_write_self_heals(self, tmp_path):
        """A torn record write is detected on read and recomputed."""
        with SweepRunner(cache_dir=tmp_path,
                         faults="corrupt@SP/PM") as runner:
            expected = runner.run_one(self.CONFIG)
        # The on-disk record is garbage ...
        key = self.CONFIG.config_hash()
        with pytest.raises(ValueError):
            json.loads(ResultCache(tmp_path).path_for(key).read_text())
        # ... so a fresh runner treats it as a miss, recomputes the
        # identical result, and heals the record.
        fresh = SweepRunner(cache_dir=tmp_path)
        assert fresh.run_one(self.CONFIG).to_dict() == expected.to_dict()
        assert fresh.cache.stats.corrupt == 1
        healed = SweepRunner(cache_dir=tmp_path)
        healed.run_one(self.CONFIG)
        assert healed.stats.cache_hits == 1

    def test_cache_io_error_degrades_with_warning(self, tmp_path):
        """Persistent write failure never fails the sweep: one warning,
        results still flow (just not persisted)."""
        with SweepRunner(cache_dir=tmp_path,
                         faults="cacheio@SP/PM") as runner:
            with pytest.warns(RuntimeWarning, match="result-cache write"):
                result = runner.run_one(self.CONFIG)
        assert result is not None
        assert ResultCache(tmp_path).peek(self.CONFIG) is None
        # The unpersisted result matches a clean run exactly.
        assert result.to_dict() == SweepRunner().run_one(self.CONFIG).to_dict()


class TestRunnerHygiene:
    def test_context_manager_closes_pool(self):
        with SweepRunner(workers=2) as runner:
            runner.run_many(GRID.configs())
            assert runner._pool is not None
        assert runner._pool is None

    def test_raising_progress_callback_is_disabled(self):
        calls = []

        def bad_progress(progress):
            calls.append(progress)
            raise RuntimeError("user callback bug")

        with SweepRunner(workers=1, progress=bad_progress) as runner:
            with pytest.warns(RuntimeWarning, match="progress callback"):
                results = runner.run_many(GRID.configs())
        assert all(r is not None for r in results)
        assert len(calls) == 1  # disabled after the first raise
        assert runner._progress is None


class TestShardAndMergeFailures:
    def test_merge_carries_shard_failures(self, clean_report):
        shards = []
        for index in (1, 2):
            with SweepRunner(workers=1, faults="raise@SP/PM") as runner:
                shards.append(shard_report(
                    GRID, ShardSpec.parse(f"{index}/2"), runner,
                    strict=False,
                ))
        merged = merge_shard_reports(shards)
        assert [f["benchmark"] for f in merged["failures"]] == ["SP"]
        assert len(merged["runs"]) == len(clean_report["runs"]) - 1
        assert_survivors_identical(merged, clean_report)

    def test_failure_records_with_attempts_still_parse(self):
        """Reports written while failing configs were retried carry an
        ``attempts`` count; merge reads them and drops it."""
        record = {
            "key": "k", "benchmark": "SP", "scheme": "PM", "config": {},
            "kind": "exception", "error": "InjectedFault: x",
            "attempts": 3, "wall_seconds": 0.5,
        }
        failure = RunFailure.from_dict(record)
        del record["attempts"]
        assert failure.to_dict() == record


class TestCLIExitCodes:
    ARGS = [
        "sweep", "--benchmarks", "SP", "--schemes", "PM",
        "--scale", str(SCALE), "--cache-dir", "",
    ]

    def test_clean_sweep_exits_zero(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_INJECT", raising=False)
        out = tmp_path / "report.json"
        assert main(self.ARGS + ["-o", str(out)]) == 0
        assert "failures" not in json.loads(out.read_text())

    def test_partial_sweep_exits_three(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "raise@SP/PM")
        out = tmp_path / "report.json"
        assert main(self.ARGS + ["-o", str(out)]) == 3
        report = json.loads(out.read_text())
        assert [f["scheme"] for f in report["failures"]] == ["PM"]
        err = capsys.readouterr().err
        assert "quarantined" in err
        assert "SP/PM [exception]: InjectedFault" in err
