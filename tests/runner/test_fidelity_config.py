"""Fidelity on the runner config surface.

Two contracts are pinned here:

* ``fidelity="exact"`` (the default) leaves every built-in grid's
  serialized configs and cache keys **byte-identical to the PR 4
  format** — the fidelity key is omitted entirely, so warm caches stay
  warm and no ``CACHE_SCHEMA_VERSION`` bump is needed.  The reference
  payload is reconstructed independently below.
* auto-mode reports are deterministic: the same grid produces
  byte-identical reports across worker counts and cache states, and
  auto records never collide with exact ones.
"""

import json

import pytest

from repro.runner import (
    CACHE_SCHEMA_VERSION,
    RunConfig,
    SweepGrid,
    SweepRunner,
    render_report,
    sweep_report,
)
from repro.core.serialize import stable_hash
from repro.sim.fidelity import AUTO, EXACT, parse_fidelity


def pr4_payload(config: RunConfig) -> dict:
    """The serialized form a PR 4 config produced (no fidelity key)."""
    return {
        "benchmark": config.benchmark.compact(),
        "scheme": config.scheme.compact(),
        "seed": config.seed,
        "n_sms": config.n_sms,
        "memory": config.memory,
        "scale": config.scale,
        "window": config.window,
        "profile_scale": config.profile_scale,
    }


def pr4_hash(config: RunConfig) -> str:
    payload = pr4_payload(config)
    payload["benchmark"] = config.benchmark.identity()
    payload["scheme"] = config.scheme.identity()
    payload["__schema__"] = CACHE_SCHEMA_VERSION
    return stable_hash(payload)


BUILT_IN_GRIDS = [
    SweepGrid(),  # the full default grid (valley suite x 6 schemes)
    SweepGrid(benchmarks=("MT", "SP"), schemes=("PM", "PAE"), scale=0.25),
    SweepGrid(
        benchmarks=("LU",), schemes=("RMP",), seeds=(0, 1),
        n_sms=(8, 12), memories=("gddr5", "stacked"), scale=0.5, window=8,
    ),
]


class TestExactByteParity:
    @pytest.mark.parametrize("grid", BUILT_IN_GRIDS, ids=["default", "small", "axes"])
    def test_every_config_serializes_like_pr4(self, grid):
        for config in grid.configs():
            assert config.fidelity == EXACT
            assert config.to_dict() == pr4_payload(config)
            assert "fidelity" not in config.to_dict()

    @pytest.mark.parametrize("grid", BUILT_IN_GRIDS, ids=["default", "small", "axes"])
    def test_every_cache_key_matches_pr4(self, grid):
        for config in grid.configs():
            assert config.config_hash() == pr4_hash(config)

    def test_grid_dict_has_no_fidelity_key(self):
        assert "fidelity" not in SweepGrid().to_dict()
        assert "fidelity" not in SweepGrid.from_dict(
            {"benchmarks": ["MT"], "schemes": ["PM"]}
        ).to_dict()

    def test_exact_round_trip(self):
        config = SweepGrid(benchmarks=("MT",), schemes=("PM",)).configs()[0]
        assert RunConfig.from_dict(config.to_dict()) == config


class TestAutoScenario:
    def test_scenario_spec_round_trip(self):
        grid = SweepGrid(
            benchmarks=("SC",), schemes=("PM",), scale=0.25,
            fidelity=AUTO,
        )
        restored = SweepGrid.from_dict(
            json.loads(json.dumps(grid.to_dict()))
        )
        assert restored == grid
        assert restored.configs() == grid.configs()


class TestAutoByteParity:
    # Recorded while auto's parameters were still settable (their
    # defaults written out here): making them constants moved no key.
    FULL_AUTO_DICT = {
        "kind": "auto", "exemplars": 2, "big_kernel_ops": 2048,
        "min_freeze_ops": 4096, "warmup_frac": 0.2, "freeze_frac": 0.5,
        "tail_frac": 0.3,
    }
    PINNED_KEYS = {
        ("SC", "BASE"): "c78e7f2c8b4aa6660d67d55569780e84"
                        "f040499ca7f68c48ad84a5d1784a09c1",
        ("SC", "PAE"): "beaddc2333c6607afe0666eb3fa60e63"
                       "8c01933244933869037c79b26611b824",
    }

    @pytest.mark.parametrize(
        "fidelity", ["auto", {"kind": "auto"}, FULL_AUTO_DICT],
        ids=["string", "kind-only", "full-dict"],
    )
    def test_auto_cache_keys_unchanged(self, fidelity):
        assert parse_fidelity(fidelity) == AUTO
        grid = SweepGrid(
            benchmarks=("SC",), schemes=("PAE",), scale=0.5, fidelity=fidelity
        )
        assert {
            (c.benchmark_name, c.scheme_name): c.config_hash()
            for c in grid.configs()
        } == self.PINNED_KEYS
        assert grid.configs()[0].to_dict()["fidelity"] == self.FULL_AUTO_DICT


class TestAutoDeterminism:
    GRID = SweepGrid(
        benchmarks=("SC",), schemes=("PM",), scale=0.25, fidelity=AUTO
    )

    def test_report_identical_across_worker_counts(self):
        serial = SweepRunner(workers=1)
        try:
            report_serial = render_report(sweep_report(self.GRID, serial))
        finally:
            serial.close()
        parallel = SweepRunner(workers=2)
        try:
            report_parallel = render_report(sweep_report(self.GRID, parallel))
        finally:
            parallel.close()
        assert report_serial == report_parallel

    def test_report_identical_cold_vs_warm_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"
        runner = SweepRunner(workers=1, cache_dir=str(cache_dir))
        try:
            cold = render_report(sweep_report(self.GRID, runner))
        finally:
            runner.close()
        warm_runner = SweepRunner(workers=1, cache_dir=str(cache_dir))
        try:
            warm = render_report(sweep_report(self.GRID, warm_runner))
            assert warm_runner.stats.executed == 0  # served from disk
        finally:
            warm_runner.close()
        assert cold == warm

    def test_auto_report_differs_from_exact(self):
        exact_grid = SweepGrid(benchmarks=("SC",), schemes=("PM",), scale=0.25)
        runner = SweepRunner(workers=1)
        try:
            auto = sweep_report(self.GRID, runner)
            exact = sweep_report(exact_grid, runner)
        finally:
            runner.close()
        assert auto["grid"] != exact["grid"]
        assert auto["runs"][0]["config"] != exact["runs"][0]["config"]
