"""Worker processes: coerce_workers / REPRO_WORKERS hardening, and
the pool entry point :func:`repro.runner.worker.execute_config`."""

import pytest

from repro.runner import (
    RunConfig,
    RunContext,
    SweepRunner,
    coerce_workers,
    default_workers,
    execute_config,
)


# ----------------------------------------------------------------------
# coerce_workers
# ----------------------------------------------------------------------
@pytest.mark.parametrize("value,expected", [
    (1, 1), (4, 4), ("2", 2), ("  8  ", 8), (3.0, 3),
])
def test_valid_values(value, expected):
    assert coerce_workers(value) == expected


@pytest.mark.parametrize("value", [0, -1, -99, "0", "-3", 0.0, -2.0])
def test_non_positive_clamps_to_one(value):
    assert coerce_workers(value) == 1


@pytest.mark.parametrize("value", ["4x", "", "two", "2.5", 2.5, True,
                                   False, None, [4]])
def test_non_integer_rejected_with_clear_message(value):
    with pytest.raises(ValueError, match="workers must be"):
        coerce_workers(value)


def test_message_names_the_source():
    with pytest.raises(ValueError, match="REPRO_WORKERS must be an integer"):
        coerce_workers("4x", source="REPRO_WORKERS")


# ----------------------------------------------------------------------
# default_workers / $REPRO_WORKERS
# ----------------------------------------------------------------------
def test_env_honored(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "3")
    assert default_workers() == 3


def test_env_non_positive_clamps(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "0")
    assert default_workers() == 1
    monkeypatch.setenv("REPRO_WORKERS", "-5")
    assert default_workers() == 1


@pytest.mark.parametrize("bad", ["4x", "2.5", "many"])
def test_env_non_integer_rejected(monkeypatch, bad):
    monkeypatch.setenv("REPRO_WORKERS", bad)
    with pytest.raises(ValueError, match="REPRO_WORKERS must be an integer"):
        default_workers()


def test_env_unset_uses_cpu_count(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    assert default_workers() >= 1


# ----------------------------------------------------------------------
# SweepRunner constructor goes through the same coercion
# ----------------------------------------------------------------------
def test_runner_clamps_non_positive_workers():
    with SweepRunner(workers=0) as runner:
        assert runner.workers == 1
    with SweepRunner(workers=-2) as runner:
        assert runner.workers == 1


def test_runner_rejects_non_integer_workers():
    with pytest.raises(ValueError, match="workers must be"):
        SweepRunner(workers="4x")
    with pytest.raises(ValueError, match="whole number"):
        SweepRunner(workers=2.5)


def test_runner_accepts_stringly_typed_workers():
    with SweepRunner(workers="1") as runner:
        assert runner.workers == 1


# ----------------------------------------------------------------------
# execute_config: the pool entry point, one config per task
# ----------------------------------------------------------------------
class TestExecuteConfig:
    CONFIG = RunConfig("SP", "PM", scale=0.25)

    def test_one_payload_returns_its_result(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_INJECT", raising=False)
        out = execute_config(self.CONFIG.to_dict())
        assert set(out) == {"result", "wall_seconds"}
        assert out["result"] == RunContext().execute(self.CONFIG).to_dict()
        assert out["wall_seconds"] >= 0.0

    def test_injected_faults_count_the_attempt(self):
        """The one run of a faulted config comes back as an error."""
        out = execute_config(self.CONFIG.to_dict(), "raise@SP/PM")
        assert set(out) == {"error", "error_type", "wall_seconds"}
        assert out["error"].startswith("InjectedFault: ")
        assert out["error_type"] == "InjectedFault"
