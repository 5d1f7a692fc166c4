"""Tests for the command-line interface."""

import json
import math
import sys

import numpy as np
import pytest

from repro.cli import _progress_printer, build_parser, main
from repro.runner import CACHE_SCHEMA_VERSION, SweepProgress
from repro.specs import WorkloadSpec


class TestSchemes:
    def test_lists_all(self, capsys):
        assert main(["schemes"]) == 0
        out = capsys.readouterr().out
        for name in ("BASE", "PM", "RMP", "PAE", "FAE", "ALL"):
            assert name in out


class TestMap:
    def test_hex_address(self, capsys):
        assert main(["map", "0x12345680", "--scheme", "PAE"]) == 0
        out = capsys.readouterr().out
        assert "0x12345680" in out
        assert "mapped" in out

    def test_identity_scheme_passthrough(self, capsys):
        assert main(["map", "4096", "--scheme", "BASE"]) == 0
        out = capsys.readouterr().out
        assert out.count("0x00001000") == 2

    def test_out_of_range(self, capsys):
        assert main(["map", str(1 << 40)]) == 2


class TestEntropy:
    def test_profile_rendered(self, capsys):
        assert main(["entropy", "SP", "--scale", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "channel/bank" in out
        assert "valleys:" in out


class TestSimulate:
    def test_simulate_small(self, capsys):
        assert main([
            "simulate", "SP", "--schemes", "PAE", "--scale", "0.25",
        ]) == 0
        out = capsys.readouterr().out
        assert "BASE" in out and "PAE" in out
        assert "speedup" in out


class TestSweep:
    def test_report_written_and_cached(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        argv = [
            "sweep", "--benchmarks", "SP", "--schemes", "PAE",
            "--scale", "0.25", "--cache-dir", str(cache),
        ]
        assert main(argv + ["-o", str(out1)]) == 0
        first_err = capsys.readouterr().err
        assert "2 executed" in first_err

        assert main(argv + ["-o", str(out2)]) == 0
        second_err = capsys.readouterr().err
        assert "2 cache hits" in second_err
        assert "0 executed" in second_err

        # Cold and warm reports are byte-identical.
        assert out1.read_bytes() == out2.read_bytes()

        report = json.loads(out1.read_text())
        assert report["format"].startswith("repro-sweep-report/")
        assert report["derived"]["speedup"]["PAE"]["SP"] > 1.0
        assert len(report["runs"]) == 2  # BASE + PAE

    def test_stdout_output_and_suite_shorthand(self, tmp_path, capsys):
        assert main([
            "sweep", "--benchmarks", "SP,HS", "--schemes", "PM",
            "--scale", "0.25", "--cache-dir", "",
        ]) == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert set(report["grid"]["benchmarks"]) == {"SP", "HS"}

    def test_unknown_benchmark_fails_cleanly(self, capsys):
        assert main([
            "sweep", "--benchmarks", "NOPE", "--schemes", "PM",
            "--cache-dir", "",
        ]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sweep", "--claims"],
        ["serve", "--claims"],
        ["cache", "prune", "--stale", "--state"],
    ], ids=["sweep-claims", "serve-claims", "prune-state"])
    def test_removed_flags_are_unknown(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_negative_seed_fails_cleanly(self, capsys):
        assert main([
            "sweep", "--benchmarks", "SP", "--schemes", "PAE",
            "--seeds", "-1", "--scale", "0.1", "--cache-dir", "",
        ]) == 2
        assert "seed must be non-negative" in capsys.readouterr().err

    def test_bad_repro_workers_fails_cleanly(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "lots")
        assert main([
            "sweep", "--benchmarks", "SP", "--schemes", "PM",
            "--workers", "0", "--cache-dir", "",
        ]) == 2
        assert "REPRO_WORKERS" in capsys.readouterr().err

    def test_progress_eta_unknown_before_first_completion(self, capsys):
        emit = _progress_printer()
        progress = SweepProgress(done=0, total=3, elapsed_seconds=1.5)
        assert progress.eta_seconds == math.inf
        emit(progress)
        assert "eta ? " in capsys.readouterr().err
        emit(SweepProgress(done=1, total=3, elapsed_seconds=1.5))
        assert "eta 3s " in capsys.readouterr().err


def without(mapping, key):
    """A copy of *mapping* lacking *key*."""
    return {k: v for k, v in mapping.items() if k != key}


class TestShardAndMerge:
    GRID_ARGS = ["--benchmarks", "SP,HS", "--schemes", "PAE", "--scale", "0.25"]

    def test_sharded_sweep_merges_byte_identical(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        single = tmp_path / "single.json"
        merged = tmp_path / "merged.json"
        from_cache = tmp_path / "from_cache.json"
        assert main([
            "sweep", *self.GRID_ARGS, "--cache-dir", str(cache),
            "-o", str(single),
        ]) == 0
        shard_paths = []
        for i in (1, 2):
            path = tmp_path / f"shard{i}.json"
            shard_paths.append(path)
            assert main([
                "sweep", *self.GRID_ARGS, "--cache-dir", str(cache),
                "--shard", f"{i}/2", "-o", str(path),
            ]) == 0
            report = json.loads(path.read_text())
            assert report["format"].startswith("repro-sweep-shard/")
            assert report["shard"] == {"index": i, "count": 2}
        capsys.readouterr()

        assert main([
            "merge", str(shard_paths[0]), str(shard_paths[1]),
            "-o", str(merged),
        ]) == 0
        assert merged.read_bytes() == single.read_bytes()

        # The file-less path: merge straight from the shared cache.
        assert main([
            "merge", "--cache-dir", str(cache), *self.GRID_ARGS,
            "-o", str(from_cache),
        ]) == 0
        assert from_cache.read_bytes() == single.read_bytes()

    def test_bad_shard_spec_rejected(self, capsys):
        assert main([
            "sweep", *self.GRID_ARGS, "--cache-dir", "", "--shard", "0/4",
        ]) == 2
        assert "shard" in capsys.readouterr().err

    def test_merge_incomplete_shards_rejected(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        shard1 = tmp_path / "shard1.json"
        assert main([
            "sweep", *self.GRID_ARGS, "--cache-dir", str(cache),
            "--shard", "1/2", "-o", str(shard1),
        ]) == 0
        capsys.readouterr()
        assert main(["merge", str(shard1), "-o", "-"]) == 2
        assert "missing shard" in capsys.readouterr().err

    def test_merge_without_inputs_rejected(self, capsys):
        assert main(["merge"]) == 2
        assert "shard report" in capsys.readouterr().err

    @pytest.fixture(scope="class")
    def shard_report(self, tmp_path_factory):
        """A one-shard report of SP/PAE (one run, no failures)."""
        path = tmp_path_factory.mktemp("shard") / "shard.json"
        assert main([
            "sweep", "--benchmarks", "SP", "--schemes", "PAE",
            "--scale", "0.25", "--cache-dir", "", "--shard", "1/1",
            "-o", str(path),
        ]) == 0
        return json.loads(path.read_text())

    @pytest.mark.parametrize("change,message", [
        (lambda report: [report], "shard report 1 is not a JSON object"),
        (lambda report: {"format": report["format"]},
         "shard report 1 has no 'grid' field"),
        (lambda report: without(report, "schema"), "no 'schema' field"),
        (lambda report: without(report, "shard"), "no 'shard' field"),
        (lambda report: without(report, "runs"), "no 'runs' field"),
        (lambda report: {**report, "shard": {"index": True, "count": 1}},
         "shard report 1's 'shard' field does not parse: "
         "shard index must be an integer"),
        (lambda report: {**report, "shard": {"index": "1", "count": 1}},
         "shard index must be an integer"),
        (lambda report: {**report, "runs": [{
            "config": without(report["runs"][0]["config"], "scheme"),
            "result": report["runs"][0]["result"],
        }]}, "shard report 1's run 1 does not parse: missing field 'scheme'"),
        (lambda report: {**report, "runs": [{}]},
         "run 1 does not parse: missing field 'config'"),
        (lambda report: {**report, "failures": [{"key": "k"}]},
         "failure 1 does not parse: missing field 'benchmark'"),
        (lambda report: {**report, "schema": -3},
         "shard report 1 has cache schema -3, not the current "
         f"{CACHE_SCHEMA_VERSION}"),
    ], ids=["list", "only-format", "no-schema", "no-shard", "no-runs",
            "index-true", "index-string", "run-without-scheme", "empty-run",
            "bad-failure", "stale-schema"])
    def test_malformed_shard_report_fails_cleanly(
        self, shard_report, tmp_path, capsys, change, message
    ):
        """A malformed shard report exits 2 with a message naming the
        shard and the field, never a traceback."""
        path = tmp_path / "shard.json"
        path.write_text(json.dumps(change(shard_report)))
        assert main(["merge", str(path), "-o", "-"]) == 2
        err = capsys.readouterr().err
        assert "error: " in err and message in err
        assert "Traceback" not in err


class TestCacheCommand:
    def test_ls_and_prune(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main([
            "sweep", "--benchmarks", "SP", "--schemes", "PAE",
            "--scale", "0.25", "--cache-dir", str(cache_dir), "-o",
            str(tmp_path / "r.json"),
        ]) == 0
        capsys.readouterr()

        assert main(["cache", "ls", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "current" in out
        assert "2 records" in out

        # Nothing from schema 1 to prune; current records survive.
        assert main([
            "cache", "prune", "--cache-dir", str(cache_dir),
            "--schema-version", "1",
        ]) == 0
        assert "pruned 0 record(s), kept 2" in capsys.readouterr().out

    def test_prune_refuses_current_schema(self, tmp_path, capsys):
        assert main([
            "cache", "prune", "--cache-dir", str(tmp_path),
            "--schema-version", str(CACHE_SCHEMA_VERSION),
        ]) == 2
        assert "refusing" in capsys.readouterr().err

    def test_prune_requires_a_target(self, tmp_path, capsys):
        assert main(["cache", "prune", "--cache-dir", str(tmp_path)]) == 2
        assert "nothing to prune" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["cache", "ls"],
        ["cache", "prune", "--stale"],
        ["merge", "--benchmarks", "SP", "--schemes", "PM", "--scale", "0.25"],
    ], ids=["ls", "prune", "merge"])
    def test_missing_cache_dir_is_an_error(self, command, tmp_path, capsys):
        """Commands that only read a cache never create one."""
        missing = tmp_path / "typo" / "cache"
        assert main(command + ["--cache-dir", str(missing)]) == 2
        assert f"error: no result cache at {missing}" in capsys.readouterr().err
        assert not (tmp_path / "typo").exists()


class TestExport:
    def test_export_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "pae.json"
        assert main(["export-scheme", "PAE", "--seed", "3", "-o", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["name"] == "PAE"
        assert len(data["rows"]) == 30

        from repro.core import hynix_gddr5_map
        from repro.core.serialize import load_scheme

        scheme = load_scheme(path, hynix_gddr5_map())
        assert scheme.name == "PAE"

    def test_export_import_export_is_stable(self, tmp_path, capsys):
        exported = tmp_path / "fae.json"
        spec_path = tmp_path / "fae.spec.json"
        re_exported = tmp_path / "fae2.json"
        assert main(["export-scheme", "FAE", "-o", str(exported)]) == 0
        assert main([
            "import-scheme", str(exported), "-o", str(spec_path),
        ]) == 0
        assert "imported FAE" in capsys.readouterr().err
        spec = json.loads(spec_path.read_text())
        assert spec["type"] == "scheme_spec" and spec["kind"] == "bim"
        # The imported spec is usable anywhere a scheme is: re-export it.
        assert main([
            "export-scheme", f"@{spec_path}", "-o", str(re_exported),
        ]) == 0
        assert re_exported.read_bytes() == exported.read_bytes()

    def test_import_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "type": "scheme_spec", "kind": "bim", "name": "BAD",
            "width": 30, "rows": ["0x0"] * 30,
        }))
        assert main(["import-scheme", str(bad)]) == 2
        assert "error" in capsys.readouterr().err


CUSTOM_SCHEME_SPEC = {
    "type": "scheme_spec",
    "kind": "stages",
    "name": "MYX",
    "stages": [
        {"op": "xor", "target": 8, "sources": [20, 24]},
        {"op": "swap", "a": 9, "b": 22},
    ],
    "extra_latency_cycles": 1,
}


class TestSpecSweep:
    """Acceptance: a custom scheme defined outside src/repro (spec file)
    sweeps, caches, shards and merges exactly like the built-ins."""

    def _scenario(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({
            "type": "scenario_spec",
            "benchmarks": ["SP"],
            "schemes": ["PAE", CUSTOM_SCHEME_SPEC],
            "scale": 0.25,
        }))
        return scenario

    def test_custom_scheme_sweeps_caches_shards_and_merges(
        self, tmp_path, capsys
    ):
        scenario = self._scenario(tmp_path)
        cache = tmp_path / "cache"
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        base_args = ["sweep", "--spec", str(scenario), "--cache-dir", str(cache)]

        # Cold sweep executes; the custom scheme lands in the report
        # next to the built-ins.
        assert main(base_args + ["-o", str(r1)]) == 0
        assert "3 executed" in capsys.readouterr().err
        report = json.loads(r1.read_text())
        assert set(report["derived"]["speedup"]) == {"BASE", "MYX", "PAE"}
        assert report["derived"]["speedup"]["MYX"]["SP"] > 0
        assert report["grid"]["schemes"][1]["name"] == "MYX"

        # Re-run hits the content-addressed cache, byte-identically.
        assert main(base_args + ["-o", str(r2)]) == 0
        err = capsys.readouterr().err
        assert "3 cache hits" in err and "0 executed" in err
        assert r2.read_bytes() == r1.read_bytes()

        # A 2-shard run over the same spec merges byte-identical.
        shards = []
        for i in (1, 2):
            path = tmp_path / f"shard{i}.json"
            shards.append(path)
            assert main(base_args + ["--shard", f"{i}/2", "-o", str(path)]) == 0
        merged = tmp_path / "merged.json"
        capsys.readouterr()
        assert main(["merge", str(shards[0]), str(shards[1]),
                     "-o", str(merged)]) == 0
        assert merged.read_bytes() == r1.read_bytes()

        # The file-less merge path re-expands the custom grid too.
        from_cache = tmp_path / "from_cache.json"
        assert main(["merge", "--cache-dir", str(cache), "--spec",
                     str(scenario), "-o", str(from_cache)]) == 0
        assert from_cache.read_bytes() == r1.read_bytes()

    def test_scheme_spec_file_on_the_schemes_flag(self, tmp_path, capsys):
        spec_file = tmp_path / "myx.json"
        spec_file.write_text(json.dumps(CUSTOM_SCHEME_SPEC))
        assert main([
            "sweep", "--benchmarks", "SP", "--schemes", f"PAE,@{spec_file}",
            "--scale", "0.25", "--cache-dir", "",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report["derived"]["speedup"]) == {"BASE", "MYX", "PAE"}

    @pytest.mark.parametrize("target,message", [
        (8.7, "stage target bit must be an integer, got 8.7"),
        (200, "stage target bit 200 outside 0..29"),
    ], ids=["fractional", "out-of-range"])
    def test_bad_stage_bit_exits_2_before_any_run(
        self, tmp_path, capsys, target, message
    ):
        """A fractional bit used to run as its truncation, and an
        out-of-range one was retried and quarantined (exit 3)."""
        spec_file = tmp_path / "bad.json"
        spec_file.write_text(json.dumps(dict(CUSTOM_SCHEME_SPEC, stages=[
            {"op": "xor", "target": target, "sources": [20, 24]},
        ])))
        assert main([
            "sweep", "--benchmarks", "SP", "--schemes", f"@{spec_file}",
            "--scale", "0.1", "--cache-dir", "",
        ]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("memory,singular,message", [
        ("stacked", False, "spec width 30 does not match address map width 32"),
        ("gddr5", True, "matrix is not invertible over GF(2)"),
    ], ids=["width-mismatch", "singular"])
    def test_bad_bim_spec_exits_2_before_any_run(
        self, tmp_path, capsys, memory, singular, message
    ):
        """Both used to fail inside the run, three times, and exit 3."""
        exported = tmp_path / "pae.json"
        assert main(["export-scheme", "PAE", "-o", str(exported)]) == 0
        if singular:
            data = json.loads(exported.read_text())
            data["rows"][1] = data["rows"][0]
            exported.write_text(json.dumps(data))
        capsys.readouterr()
        assert main([
            "sweep", "--benchmarks", "SP", "--schemes", f"@{exported}",
            "--memories", memory, "--scale", "0.1", "--cache-dir", "",
        ]) == 2
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err
        assert captured.out == ""

    def test_missing_spec_file_fails_cleanly(self, tmp_path, capsys):
        assert main([
            "sweep", "--spec", str(tmp_path / "nope.json"), "--cache-dir", "",
        ]) == 2
        assert "error" in capsys.readouterr().err

    def test_mistyped_spec_key_exits_2_before_any_run(self, tmp_path, capsys):
        """A misspelt axis used to be ignored: this file ran at scale 1.0."""
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({
            "benchmarks": ["MT"], "schemes": ["PAE"], "scales": 0.25,
        }))
        assert main(["sweep", "--spec", str(scenario), "--cache-dir", ""]) == 2
        captured = capsys.readouterr()
        assert "unknown sweep grid key 'scales'" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["serve", "--tenant-max-jobs", "1"],
    ["sweep", "--register", "m:f"],
    ["sweep", "--max-retries", "2"],
    ["serve", "--max-retries", "0"],
    ["serve", "--runners", "2"],
], ids=["serve-tenant-max-jobs", "sweep-register", "sweep-max-retries",
        "serve-max-retries", "serve-runners"])
def test_removed_settings_are_unknown_flags(argv, capsys):
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args(argv)
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["definitely-not-a-command"])


@pytest.mark.parametrize("command", [
    ["sweep", "--benchmarks", "MT", "--schemes", "PM", "--cache-dir", "",
     "--scale", "nan"],
    ["simulate", "MT", "--schemes", "PM", "--scale", "nan"],
    ["profile", "MT", "--scale", "nan"],
    ["profile", "SP", "--scale", "0"],
], ids=["sweep-nan", "simulate-nan", "profile-nan", "profile-zero"])
def test_bad_scale_fails_cleanly(command, capsys):
    assert main(command) == 2
    err = capsys.readouterr().err
    assert "scale and profile_scale must be positive" in err
    assert "Traceback" not in err
    assert sys.getprofile() is None  # profile disabled cProfile on error


@pytest.mark.parametrize("timeout", ["inf", "nan", "-1"])
def test_bad_timeout_fails_cleanly(timeout, capsys):
    """Only 0 means no timeout: inf, nan and negative values exit 2
    with a message, never a traceback or a silent "no timeout"."""
    assert main([
        "sweep", "--benchmarks", "SP", "--schemes", "PM", "--scale", "0.25",
        "--cache-dir", "", "--workers", "2", "--timeout", timeout,
    ]) == 2
    err = capsys.readouterr().err
    assert "error: timeout must be positive and finite" in err
    assert "Traceback" not in err


class TestStrictRunFailures:
    """simulate and profile need every config: one quarantined ends
    them with exit 3 and its summary, as `repro sweep` exits 3, never
    with a SweepFailure traceback."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "SP", "--schemes", "PM", "--scale", "0.1"],
        ["profile", "SP", "--scheme", "PM", "--scale", "0.1"],
    ], ids=["simulate", "profile"])
    def test_quarantined_config_exits_three(self, argv, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "raise@SP/PM")
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "error: 1 config(s) failed permanently: SP/PM" in err
        assert "Traceback" not in err

    def test_corrupt_trace_file_exits_three(self, tmp_path, capsys):
        from repro.workloads import build_workload, save_workload

        trace = tmp_path / "sp.npz"
        save_workload(build_workload("SP", scale=0.1), trace)
        with np.load(trace) as data:
            arrays = {name: data[name] for name in data.files}
        arrays["warp_lengths"][0] = -1
        np.savez_compressed(trace, **arrays)
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps(WorkloadSpec.trace(trace).to_dict()))
        assert main(["simulate", f"@{spec}", "--schemes", "PAE"]) == 3
        err = capsys.readouterr().err
        assert "warp_lengths holds a negative length" in err
        assert "Traceback" not in err


class TestProfile:
    def test_profile_prints_stats(self, capsys):
        assert main([
            "profile", "SP", "--scheme", "BASE", "--scale", "0.25",
            "--limit", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "cumtime" in out
        assert "function calls" in out

    def test_profile_auto_and_sort(self, capsys):
        assert main([
            "profile", "SP", "--scale", "0.25", "--limit", "3",
            "--sort", "tottime", "--fidelity", "auto",
        ]) == 0
        assert "tottime" in capsys.readouterr().out


class TestFidelityFlag:
    def test_sweep_auto_fidelity(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main([
            "sweep", "--benchmarks", "SP", "--schemes", "PM",
            "--scale", "0.25", "--cache-dir", "",
            "--fidelity", "auto",
            "-o", str(out),
        ]) == 0
        report = json.loads(out.read_text())
        assert report["grid"]["fidelity"] == {
            "kind": "auto", "exemplars": 2, "big_kernel_ops": 2048,
            "min_freeze_ops": 4096, "warmup_frac": 0.2, "freeze_frac": 0.5,
            "tail_frac": 0.3,
        }
        for run in report["runs"]:
            assert run["config"]["fidelity"] == report["grid"]["fidelity"]

    def test_exact_sweep_report_has_no_fidelity_key(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main([
            "sweep", "--benchmarks", "SP", "--schemes", "PM",
            "--scale", "0.25", "--cache-dir", "", "-o", str(out),
        ]) == 0
        report = json.loads(out.read_text())
        assert "fidelity" not in report["grid"]
        for run in report["runs"]:
            assert "fidelity" not in run["config"]

    def test_bad_fidelity_fails_cleanly(self, capsys):
        assert main([
            "sweep", "--benchmarks", "SP", "--schemes", "PM",
            "--scale", "0.25", "--cache-dir", "", "--fidelity", "bogus",
        ]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["sweep", "--benchmarks", "SP", "--schemes", "PM", "--cache-dir", ""],
        ["simulate", "SP", "--schemes", "PM"],
        ["profile", "SP"],
    ], ids=["sweep", "simulate", "profile"])
    def test_sampled_fidelity_is_rejected(self, command, capsys):
        """Neither the deleted sampled mode nor auto's retired
        parameter grammar is read as some default."""
        for fidelity in ("sampled", "auto:exemplars=3"):
            assert main(
                command + ["--scale", "0.25", "--fidelity", fidelity]
            ) == 2
            err = capsys.readouterr().err
            assert f"unknown fidelity '{fidelity}'" in err
            assert "Traceback" not in err
            assert sys.getprofile() is None  # profile never enabled cProfile

    @pytest.mark.parametrize("fidelity", [
        {"kind": "sampled", "warmup": 1, "window": 2, "period": 16},
        {"kind": "auto", "exemplar": 3},
        {"kind": "auto", "exemplars": 3},
    ], ids=["sampled", "auto-typo", "auto-tuned"])
    def test_bad_scenario_fidelity_fails_cleanly(self, fidelity, tmp_path,
                                                 capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({
            "benchmarks": ["SP"], "schemes": ["PM"], "scale": 0.25,
            "fidelity": fidelity,
        }))
        assert main([
            "sweep", "--spec", str(scenario), "--cache-dir", "",
        ]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
