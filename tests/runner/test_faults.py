"""Fault-injection tests for the sweep runner's failure policy.

Every recovery path — retry, timeout, pool rebuild, crash probing,
quarantine, cache-fault degradation, claims-mode peer death — is
driven deterministically through :class:`repro.runner.FaultPlan`
injection, and every test asserts the core contract: **surviving
results are byte-identical to a fault-free sweep**.  Faults decide
whether a result is produced, never what it is.
"""

import json
import math
import os
import time

import pytest

from repro.cli import main
from repro.runner import (
    FailurePolicy,
    FaultPlan,
    FaultSpecError,
    ResultCache,
    RunConfig,
    ShardSpec,
    SweepFailure,
    SweepGrid,
    SweepRunner,
    faults,
    merge_shard_reports,
    render_report,
    shard_report,
    sweep_report,
)
from repro.specs import SchemeSpec, WorkloadSpec

SCALE = 0.25

SP_PM = RunConfig(
    WorkloadSpec.from_value("SP"), SchemeSpec.from_value("PM"), scale=SCALE
)

GRID = SweepGrid(benchmarks=("SP", "MT"), schemes=("PM",), scale=SCALE)

# One policy for everything: two retries at the default backoff.
POLICY = FailurePolicy(max_retries=2)


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
        plan = FaultPlan.parse("raise@SP/PM:times=2; exit@*/PAE:code=9")
        assert plan.spec == "raise@SP/PM:times=2; exit@*/PAE:code=9"
        first, second = plan.clauses
        assert (first.mode, first.benchmark, first.scheme, first.times) == (
            "raise", "SP", "PM", 2.0,
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
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(FaultSpecError):
            FaultPlan.parse(bad)

    def test_times_bounds_attempts_and_inf_is_poison(self):
        clause = FaultPlan.parse("raise@SP/PM:times=2").clauses[0]
        assert clause.triggers("SP", "PM", "k", 0)
        assert clause.triggers("SP", "PM", "k", 1)
        assert not clause.triggers("SP", "PM", "k", 2)
        assert not clause.triggers("MT", "PM", "k", 0)
        poison = FaultPlan.parse("raise@SP/PM:times=inf").clauses[0]
        assert poison.times == math.inf
        assert poison.triggers("SP", "PM", "k", 500)

    def test_rate_draws_are_deterministic_per_attempt(self):
        clause = FaultPlan.parse("raise@rate=0.5:salt=s").clauses[0]
        draws = [clause.triggers("SP", "PM", "key", a) for a in range(64)]
        assert draws == [clause.triggers("SP", "PM", "key", a) for a in range(64)]
        assert any(draws) and not all(draws)  # a coin, not a constant


class TestFailurePolicy:
    def test_backoff_deterministic_bounded_and_growing(self):
        policy = FailurePolicy()
        first = policy.backoff_seconds("key", 1)
        assert first == policy.backoff_seconds("key", 1)
        assert first != policy.backoff_seconds("other", 1)  # desynced peers
        ceiling = 1.0 + faults.JITTER
        assert faults.BACKOFF_BASE <= first <= faults.BACKOFF_BASE * ceiling
        second = policy.backoff_seconds("key", 2)
        assert second >= faults.BACKOFF_BASE * faults.BACKOFF_FACTOR
        assert policy.backoff_seconds("key", 50) <= faults.BACKOFF_MAX * ceiling

    def test_deadline_is_timeout_plus_grace(self):
        policy = FailurePolicy(timeout=2.0)
        assert policy.deadline_seconds() == pytest.approx(
            2.0 + faults.TIMEOUT_GRACE
        )
        assert FailurePolicy().deadline_seconds() is None

    def test_validation(self):
        with pytest.raises(ValueError):
            FailurePolicy(max_retries=-1)
        for timeout in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                FailurePolicy(timeout=timeout)


class TestTransientFaults:
    """Faults that stop before max_retries: retried, byte-identical."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_transient_raise_recovers(self, clean_report, workers):
        with SweepRunner(workers=workers, policy=POLICY,
                         faults="raise@SP/PM:times=2") as runner:
            report = sweep_report(GRID, runner, strict=False)
        assert "failures" not in report
        assert render_report(report) == render_report(clean_report)
        assert runner.stats.retries == 2
        assert runner.stats.failed == 0

    def test_worker_exit_rebuilds_pool_and_recovers(self, clean_report):
        """An OOM-style worker death (os._exit) breaks the pool; the
        runner rebuilds it and the config succeeds on retry."""
        with SweepRunner(workers=2, policy=POLICY,
                         faults="exit@MT/PM:times=1") as runner:
            report = sweep_report(GRID, runner, strict=False)
        assert "failures" not in report
        assert render_report(report) == render_report(clean_report)
        assert runner.stats.retries >= 1

    def test_chaos_rate_report_is_byte_identical(self, clean_report):
        """20% of (config, attempt) pairs fail; the report never shows it."""
        with SweepRunner(workers=2, policy=FailurePolicy(max_retries=8),
                         faults="raise@rate=0.2:salt=chaos") as runner:
            report = sweep_report(GRID, runner, strict=False)
        assert "failures" not in report
        assert render_report(report) == render_report(clean_report)


class TestQuarantine:
    def test_poison_config_quarantined_exactly_once(self, clean_report):
        with SweepRunner(workers=2, policy=POLICY,
                         faults="raise@SP/PM:times=inf") as runner:
            report = sweep_report(GRID, runner, strict=False)
        assert len(report["failures"]) == 1
        failure = report["failures"][0]
        assert failure["benchmark"] == "SP" and failure["scheme"] == "PM"
        assert failure["kind"] == "exception"
        assert failure["attempts"] == POLICY.max_attempts
        assert "InjectedFault" in failure["error"]
        assert runner.stats.failed == 1
        # Healthy configs all completed, byte-identical to fault-free.
        assert len(report["runs"]) == len(clean_report["runs"]) - 1
        assert_survivors_identical(report, clean_report)
        # Derived tables skip the poisoned pair but keep its siblings.
        assert "SP" not in report["derived"]["speedup"].get("PM", {})
        assert "MT" in report["derived"]["speedup"]["PM"]

    def test_inline_quarantine_matches_pool(self):
        with SweepRunner(workers=1, policy=POLICY,
                         faults="raise@SP/PM:times=inf") as runner:
            outcome = runner.run_outcomes(GRID.configs())
        assert len(outcome.failures) == 1
        assert outcome.failures[0].attempts == POLICY.max_attempts
        assert sum(r is None for r in outcome.results) == 1
        assert not outcome.ok

    def test_strict_run_many_raises_after_completion(self):
        with SweepRunner(workers=2, policy=POLICY,
                         faults="raise@SP/PM:times=inf") as runner:
            with pytest.raises(SweepFailure) as excinfo:
                runner.run_many(GRID.configs())
        assert len(excinfo.value.failures) == 1
        assert "SP/PM" in str(excinfo.value)
        # Fail-at-the-end: the healthy configs did execute first.
        assert runner.stats.executed == len(GRID.configs()) - 1

    def test_failed_config_not_memoized(self):
        """A quarantined config is retried fresh by a later call."""
        runner = SweepRunner(workers=1, policy=POLICY,
                             faults="raise@SP/PM:times=inf")
        outcome = runner.run_outcomes(GRID.configs())
        assert len(outcome.failures) == 1
        runner.faults = None  # the transient condition clears
        results = runner.run_many(GRID.configs())
        assert all(r is not None for r in results)

    def test_poison_exit_isolated_by_probing(self):
        """A poison config among the futures a dead pool took down is
        pinned by probing them one at a time and quarantined without
        losing the configs that died alongside it."""
        grid = SweepGrid(benchmarks=("SP", "MT", "HS"), schemes=("PM",),
                         scale=SCALE)
        with SweepRunner(workers=2) as runner:
            clean = sweep_report(grid, runner)
        with SweepRunner(workers=2, policy=FailurePolicy(max_retries=1),
                         faults="exit@MT/PM:times=inf") as runner:
            report = sweep_report(grid, runner, strict=False)
        assert [f["benchmark"] for f in report["failures"]] == ["MT"]
        assert report["failures"][0]["kind"] == "worker-crash"
        assert len(report["runs"]) == len(grid.configs()) - 1
        assert runner.stats.executed == len(grid.configs()) - 1
        assert_survivors_identical(report, clean)


class TestTimeout:
    def test_hung_run_times_out_and_peers_survive(self, clean_report):
        policy = FailurePolicy(max_retries=0, timeout=2.0)
        with SweepRunner(workers=2, policy=policy,
                         faults="hang@SP/BASE:seconds=60,times=inf") as runner:
            report = sweep_report(GRID, runner, strict=False)
        assert len(report["failures"]) == 1
        failure = report["failures"][0]
        assert failure["kind"] == "timeout"
        assert failure["benchmark"] == "SP" and failure["scheme"] == "BASE"
        assert failure["attempts"] == 1
        assert_survivors_identical(report, clean_report)


class TestCacheFaults:
    CONFIG = SP_PM

    def test_corrupt_write_self_heals(self, tmp_path):
        """A torn record write is detected on read and recomputed."""
        with SweepRunner(cache_dir=tmp_path, policy=POLICY,
                         faults="corrupt@SP/PM:times=1") as runner:
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
        with SweepRunner(cache_dir=tmp_path, policy=POLICY,
                         faults="cacheio@SP/PM:times=inf") as runner:
            with pytest.warns(RuntimeWarning, match="result-cache write"):
                result = runner.run_one(self.CONFIG)
        assert result is not None
        assert ResultCache(tmp_path).peek(self.CONFIG) is None
        # The unpersisted result matches a clean run exactly.
        assert result.to_dict() == SweepRunner().run_one(self.CONFIG).to_dict()


class TestClaimsFaults:
    CONFIG = SP_PM

    def test_release_claim_is_nonce_verified(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = self.CONFIG.config_hash()
        nonce = cache.try_claim(key)
        assert nonce
        cache.release_claim(key, nonce="somebody-else")
        assert cache.claim_age(key) is not None  # foreign nonce: kept
        cache.release_claim(key, nonce=nonce)
        assert cache.claim_age(key) is None  # own nonce: dropped
        # A successor's claim survives a replay of the old nonce — the
        # double-release hazard the claims fix is about.
        assert cache.try_claim(key)
        cache.release_claim(key, nonce=nonce)
        assert cache.claim_age(key) is not None

    def test_quarantined_config_releases_its_claim(self, tmp_path):
        """A claim must not outlive the failure: peers would poll a key
        whose record will never appear."""
        with SweepRunner(cache_dir=tmp_path, claims=True, policy=POLICY,
                         faults="raise@SP/PM:times=inf") as runner:
            outcome = runner.run_outcomes([self.CONFIG])
        assert len(outcome.failures) == 1
        assert ResultCache(tmp_path).claim_age(
            self.CONFIG.config_hash()
        ) is None

    def test_dead_peer_claim_taken_over(self, tmp_path):
        """A stale claim (peer died mid-run) is taken over and the
        config executed locally."""
        cache = ResultCache(tmp_path)
        key = self.CONFIG.config_hash()
        assert cache.try_claim(key)
        stale = time.time() - 3600
        os.utime(cache.claim_path_for(key), (stale, stale))
        with SweepRunner(cache_dir=tmp_path, claims=True) as runner:
            runner.run_one(self.CONFIG)
        assert runner.stats.executed == 1
        assert cache.claim_age(key) is None

    def test_vanished_peer_claim_falls_back_to_local_run(self, tmp_path):
        """A fresh foreign claim that disappears without a record means
        the peer died: stop polling, run locally."""
        cache = ResultCache(tmp_path)
        key = self.CONFIG.config_hash()
        assert cache.try_claim(key)
        with SweepRunner(cache_dir=tmp_path, claims=True) as runner:
            # Drop the peer's claim from under the poller after a beat.
            import threading
            threading.Timer(0.2, cache.release_claim, args=(key,)).start()
            started = time.monotonic()
            result = runner.run_one(self.CONFIG)
        assert result is not None
        assert runner.stats.executed == 1
        assert time.monotonic() - started < 25.0  # did not wait CLAIM_TTL


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
            with SweepRunner(workers=1, policy=POLICY,
                             faults="raise@SP/PM:times=inf") as runner:
                shards.append(shard_report(
                    GRID, ShardSpec.parse(f"{index}/2"), runner,
                    strict=False,
                ))
        merged = merge_shard_reports(shards)
        assert [f["benchmark"] for f in merged["failures"]] == ["SP"]
        assert len(merged["runs"]) == len(clean_report["runs"]) - 1
        assert_survivors_identical(merged, clean_report)


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
        monkeypatch.setenv("REPRO_FAULT_INJECT", "raise@SP/PM:times=inf")
        out = tmp_path / "report.json"
        assert main(self.ARGS + ["-o", str(out)]) == 3
        report = json.loads(out.read_text())
        assert [f["scheme"] for f in report["failures"]] == ["PM"]
        err = capsys.readouterr().err
        assert "quarantined" in err and "SP/PM" in err

    def test_transient_env_fault_exits_zero(self, tmp_path, monkeypatch):
        """The same sweep with a transient fault retries to a clean 0."""
        monkeypatch.setenv("REPRO_FAULT_INJECT", "raise@SP/PM:times=1")
        out = tmp_path / "report.json"
        assert main(self.ARGS + ["-o", str(out)]) == 0
        assert "failures" not in json.loads(out.read_text())
