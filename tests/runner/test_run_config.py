"""Tests for run configs, grid expansion and hash stability."""

import os
import subprocess
import sys
import warnings
from dataclasses import replace

import pytest

from repro.runner.config import CACHE_SCHEMA_VERSION, RunConfig, SweepGrid
from repro.specs import SchemeSpec, WorkloadSpec


class TestRunConfig:
    def test_normalizes_case(self):
        config = RunConfig("mt", "pae")
        assert config.benchmark_name == "MT"
        assert config.scheme_name == "PAE"
        assert config.benchmark == WorkloadSpec.registered("MT")
        assert config.scheme == SchemeSpec.registered("PAE")

    def test_accepts_spec_objects(self):
        config = RunConfig(
            benchmark=WorkloadSpec.registered("MT"),
            scheme=SchemeSpec.registered("PAE"),
        )
        assert config == RunConfig("MT", "PAE")

    def test_profile_scale_defaults_to_scale(self):
        assert RunConfig("MT", "PAE", scale=0.5).profile_scale == 0.5
        assert RunConfig("MT", "PAE", scale=0.5, profile_scale=1.0).profile_scale == 1.0

    def test_rejects_unknown_benchmark(self):
        with pytest.raises(ValueError, match="benchmark"):
            RunConfig("NOPE", "PAE")

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError, match="scheme"):
            RunConfig("MT", "NOPE")

    def test_rejects_unknown_memory(self):
        with pytest.raises(ValueError, match="memory"):
            RunConfig("MT", "PAE", memory="hbm17")

    def test_rejects_bad_numbers(self):
        with pytest.raises(ValueError):
            RunConfig("MT", "PAE", n_sms=0)
        for scale in (0.0, float("nan"), float("inf"), 10 ** 400):
            with pytest.raises(ValueError, match="must be positive and finite"):
                RunConfig("MT", "PAE", scale=scale)
            with pytest.raises(ValueError, match="must be positive and finite"):
                RunConfig("MT", "PAE", scale=0.5, profile_scale=scale)
        # Bools and strings are not coerced (True would run at 1.0).
        for value in (True, "0.25"):
            for field in ("scale", "profile_scale"):
                with pytest.raises(ValueError,
                                   match=f"{field} must be a real number"):
                    RunConfig("MT", "PAE", **{field: value})
                data = RunConfig("MT", "PAE").to_dict()
                data[field] = value
                with pytest.raises(ValueError,
                                   match=f"{field} must be a real number"):
                    RunConfig.from_dict(data)
        with pytest.raises(ValueError):
            RunConfig("MT", "PAE", window=0)
        with pytest.raises(ValueError, match="seed must be non-negative"):
            RunConfig("MT", "PAE", seed=-1)
        for field in ("seed", "n_sms", "window"):
            for value in (2.5, 2.0, True, "4", None):
                with pytest.raises(ValueError, match=f"{field} must be an int"):
                    RunConfig("MT", "PAE", **{field: value})
            data = RunConfig("MT", "PAE").to_dict()
            data[field] = 2.5
            with pytest.raises(ValueError, match=f"{field} must be an int"):
                RunConfig.from_dict(data)

    def test_int_and_float_scales_share_one_cache_key(self):
        """``scale=1`` is stored as ``1.0``: one cache key, kept by a
        round trip, and a grid renders it as ``1.0``."""
        as_int = RunConfig("SP", "PAE", scale=1, profile_scale=1)
        as_float = RunConfig("SP", "PAE", scale=1.0)
        assert (as_int.scale, as_int.profile_scale) == (1.0, 1.0)
        assert as_int.config_hash() == as_float.config_hash()
        restored = RunConfig.from_dict(as_int.to_dict())
        assert restored.config_hash() == as_float.config_hash()
        grid = SweepGrid(benchmarks=("SP",), schemes=("PAE",), scale=1)
        assert repr(grid.to_dict()["scale"]) == "1.0"
        assert grid.configs()[1].config_hash() == as_float.config_hash()

    def test_numpy_integers_keep_the_plain_config(self):
        import numpy as np

        config = RunConfig("MT", "PAE", seed=np.int64(3), n_sms=np.int32(8),
                           window=np.int16(10))
        plain = RunConfig("MT", "PAE", seed=3, n_sms=8, window=10)
        assert config == plain
        assert all(type(config.to_dict()[f]) is int
                   for f in ("seed", "n_sms", "window"))
        assert config.config_hash() == plain.config_hash()

    def test_dict_round_trip(self):
        config = RunConfig("LU", "FAE", seed=3, n_sms=24, memory="stacked",
                           scale=0.5, window=8)
        assert RunConfig.from_dict(config.to_dict()) == config

    def test_to_dict_keeps_bare_names_for_builtins(self):
        """Plain registered specs serialize as strings (cache-key stable)."""
        data = RunConfig("MT", "PAE").to_dict()
        assert data["benchmark"] == "MT"
        assert data["scheme"] == "PAE"

    def test_baseline_swaps_scheme_only(self):
        config = RunConfig("LU", "FAE", seed=3, n_sms=24, scale=0.5)
        base = config.baseline()
        assert base.scheme_name == "BASE"
        assert base == replace(config, scheme=SchemeSpec.registered("BASE"))


class TestBareNames:
    def test_names_normalize_and_no_form_warns(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bare = RunConfig("MT", "PAE")
            spec = RunConfig(
                benchmark=WorkloadSpec.registered("MT"),
                scheme=SchemeSpec.registered("PAE"),
            )
            SweepGrid(benchmarks=("MT",), schemes=("PAE",)).configs()
        assert bare == spec
        assert bare.scheme == SchemeSpec.registered("PAE")


class TestConfigHash:
    def test_equal_configs_equal_hashes(self):
        a = RunConfig("MT", "PAE", seed=1)
        b = RunConfig("mt", "pae", seed=1)
        assert a.config_hash() == b.config_hash()

    def test_every_field_change_invalidates(self):
        base = RunConfig("MT", "PAE", seed=0, n_sms=12, memory="gddr5",
                         scale=1.0, window=12, profile_scale=1.0)
        variants = [
            replace(base, benchmark=WorkloadSpec.registered("LU")),
            replace(base, scheme=SchemeSpec.registered("FAE")),
            replace(base, seed=1),
            replace(base, n_sms=24),
            replace(base, memory="stacked"),
            replace(base, scale=0.5),
            replace(base, window=8),
            replace(base, profile_scale=0.5),
        ]
        hashes = {base.config_hash()} | {v.config_hash() for v in variants}
        assert len(hashes) == len(variants) + 1

    def test_custom_spec_hashes_differ_from_builtin(self):
        from repro.core.address_map import hynix_gddr5_map
        from repro.registry import make_scheme

        pae = make_scheme("PAE", hynix_gddr5_map(), seed=0)
        literal = SchemeSpec.from_scheme(pae)
        named = RunConfig("MT", "PAE")
        snapshot = RunConfig("MT", literal)
        # Same realized matrix, different identity: the registered name
        # hashes the name, the literal spec hashes its content.
        assert named.config_hash() != snapshot.config_hash()
        # But the literal spec round-trips to the same key.
        again = RunConfig.from_dict(snapshot.to_dict())
        assert again.config_hash() == snapshot.config_hash()

    def test_hash_stable_across_processes(self):
        """The cache key must not depend on interpreter hash randomization."""
        config = RunConfig("MT", "PAE", seed=2, scale=0.5)
        code = (
            "from repro.runner.config import RunConfig; "
            "print(RunConfig('MT', 'PAE', seed=2, scale=0.5).config_hash())"
        )
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = "12345"  # force a different seed than ours
        out = subprocess.run(
            [sys.executable, "-c", code], env=env,
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == config.config_hash()

    def test_schema_version_salts_the_hash(self):
        config = RunConfig("MT", "PAE")
        payload = config.to_dict()
        payload["__schema__"] = CACHE_SCHEMA_VERSION + 1
        from repro.core.serialize import stable_hash

        assert stable_hash(payload) != config.config_hash()


class TestSweepGrid:
    def test_base_always_included(self):
        grid = SweepGrid(benchmarks=("MT",), schemes=("PAE",))
        schemes = {c.scheme_name for c in grid.configs()}
        assert schemes == {"BASE", "PAE"}

    def test_base_not_duplicated(self):
        grid = SweepGrid(benchmarks=("MT",), schemes=("BASE", "PAE"))
        assert len(grid.configs()) == 2

    def test_deterministic_order(self):
        grid = SweepGrid(benchmarks=("SP", "MT"), schemes=("PAE", "PM"),
                         seeds=(0, 1))
        configs = grid.configs()
        assert configs == grid.configs()
        # Benchmarks outermost, in the order given.
        assert [c.benchmark_name for c in configs[: len(configs) // 2]] == \
            ["SP"] * (len(configs) // 2)

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            SweepGrid(benchmarks=())

    def test_grid_dict_is_json_safe(self):
        import json

        json.dumps(SweepGrid().to_dict())

    def test_grid_accepts_spec_entries_and_round_trips(self):
        custom = SchemeSpec.stages(
            "MYX", [{"op": "xor", "target": 8, "sources": [20, 21]}]
        )
        grid = SweepGrid(benchmarks=("SP",), schemes=("PAE", custom))
        rebuilt = SweepGrid.from_dict(grid.to_dict())
        assert rebuilt == grid
        assert {c.scheme_name for c in grid.configs()} == {"BASE", "PAE", "MYX"}

    def test_colliding_names_rejected(self):
        a = SchemeSpec.stages("MYX", [{"op": "swap", "a": 8, "b": 20}])
        b = SchemeSpec.stages("MYX", [{"op": "swap", "a": 9, "b": 21}])
        with pytest.raises(ValueError, match="name"):
            SweepGrid(benchmarks=("SP",), schemes=(a, b))

    def test_custom_scheme_named_base_rejected(self):
        # The auto-inserted BASE baseline is matched by name; a custom
        # spec called BASE would silently steal its report rows.
        impostor = SchemeSpec.stages("BASE", [{"op": "swap", "a": 8, "b": 20}])
        with pytest.raises(ValueError, match="name"):
            SweepGrid(benchmarks=("SP",), schemes=(impostor,))
