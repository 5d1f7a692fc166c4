"""Sharded sweep execution: partition invariants, merge identity, shared caches.

The load-bearing guarantees of the distributed front-end:

* shards are pairwise disjoint, their union is the full grid, and the
  partition is stable across invocations (property-based over grids),
* ``repro merge`` output is byte-identical to an unsharded sweep,
* overlapping sweeps racing on one cache directory leave every record
  sound and every report unchanged.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runner import (
    CACHE_SCHEMA_VERSION,
    MergeError,
    ResultCache,
    SHARD_FORMAT,
    ShardSpec,
    SweepGrid,
    SweepRunner,
    default_workers,
    merge_shard_reports,
    render_report,
    report_from_cache,
    shard_owner,
    shard_report,
    sweep_report,
)
from repro.serve import ReproServer
from repro.serve.jobs import RunnerPool

SCALE = 0.25
GRID = SweepGrid(benchmarks=("SP", "HS"), schemes=("PAE",), scale=SCALE)


class TestShardSpec:
    def test_parse(self):
        spec = ShardSpec.parse("2/4")
        assert (spec.index, spec.count) == (2, 4)
        assert str(spec) == "2/4"

    @pytest.mark.parametrize("text", ["0/4", "5/4", "1/0", "x/y", "3", "-1/4", ""])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            ShardSpec.parse(text)

    def test_round_trip_dict(self):
        spec = ShardSpec(index=3, count=7)
        assert ShardSpec.from_dict(spec.to_dict()) == spec

    def test_single_shard_owns_everything(self):
        spec = ShardSpec(index=1, count=1)
        configs = GRID.configs()
        assert spec.select(configs) == configs


# Grids built from axes that expand to tens of configs: enough keys for
# the partition properties to bite without running any simulation.
_GRIDS = st.builds(
    SweepGrid,
    benchmarks=st.sampled_from([
        ("SP",), ("SP", "HS"), ("MT", "LU", "SC", "SP"),
        ("MT", "LU", "SC", "SRAD2", "SP", "HS"),
    ]),
    schemes=st.sampled_from([("PAE",), ("PM", "PAE"), ("PM", "RMP", "PAE", "FAE")]),
    seeds=st.sampled_from([(0,), (0, 1), (0, 1, 2)]),
)


@settings(max_examples=25, deadline=None)
@given(grid=_GRIDS, count=st.integers(min_value=1, max_value=6))
def test_shards_partition_the_grid(grid, count):
    """Disjoint, covering, stable: the three sharding invariants."""
    configs = grid.configs()
    keys = [c.config_hash() for c in configs]
    selections = [
        ShardSpec(index=i, count=count).select(configs)
        for i in range(1, count + 1)
    ]
    # Disjoint and covering: every config lands in exactly one shard.
    seen = [c.config_hash() for shard in selections for c in shard]
    assert sorted(seen) == sorted(keys)
    # Order-preserving: each shard is a subsequence of the grid order.
    for shard in selections:
        indices = [keys.index(c.config_hash()) for c in shard]
        assert indices == sorted(indices)
    # Stable: re-partitioning yields identical subsets.
    again = [
        ShardSpec(index=i, count=count).select(configs)
        for i in range(1, count + 1)
    ]
    assert selections == again


def test_rendezvous_balance_and_stability():
    """HRW over many keys: roughly balanced, and growing N only moves
    keys onto the new shard (every other key keeps its owner)."""
    keys = [f"key-{i:05d}" for i in range(2000)]
    owners_4 = {k: shard_owner(k, 4) for k in keys}
    counts = [list(owners_4.values()).count(i) for i in range(1, 5)]
    assert sum(counts) == len(keys)
    assert min(counts) > len(keys) / 4 * 0.7, counts
    owners_5 = {k: shard_owner(k, 5) for k in keys}
    for k in keys:
        assert owners_5[k] in (owners_4[k], 5)


class TestMerge:
    @pytest.fixture(scope="class")
    def shared_cache(self, tmp_path_factory):
        """One warm cache shared by every merge test (4 small sims)."""
        cache_dir = tmp_path_factory.mktemp("shard-cache")
        runner = SweepRunner(cache_dir=cache_dir)
        sweep_report(GRID, runner)
        return cache_dir

    def _shards(self, shared_cache, count):
        return [
            shard_report(
                GRID, ShardSpec(index=i, count=count),
                SweepRunner(cache_dir=shared_cache),
            )
            for i in range(1, count + 1)
        ]

    def test_merge_is_byte_identical_to_single_sweep(self, shared_cache):
        single = render_report(
            sweep_report(GRID, SweepRunner(cache_dir=shared_cache))
        )
        for count in (1, 2, 4):
            merged = merge_shard_reports(self._shards(shared_cache, count))
            assert render_report(merged) == single, f"{count} shards"

    def test_shard_report_shape(self, shared_cache):
        report = shard_report(
            GRID, ShardSpec(index=1, count=2), SweepRunner(cache_dir=shared_cache)
        )
        assert report["format"] == SHARD_FORMAT
        assert report["shard"] == {"index": 1, "count": 2}
        assert "derived" not in report
        owned = ShardSpec(index=1, count=2).select(GRID.configs())
        assert [r["config"] for r in report["runs"]] == [
            c.to_dict() for c in owned
        ]

    def test_merge_from_cache_matches(self, shared_cache):
        single = render_report(
            sweep_report(GRID, SweepRunner(cache_dir=shared_cache))
        )
        merged = report_from_cache(GRID, ResultCache(shared_cache))
        assert render_report(merged) == single

    def test_merge_missing_shard_rejected(self, shared_cache):
        shards = self._shards(shared_cache, 4)
        with pytest.raises(MergeError, match=r"missing shard\(s\) \[3\]"):
            merge_shard_reports([shards[0], shards[1], shards[3]])

    def test_merge_duplicate_shard_rejected(self, shared_cache):
        shards = self._shards(shared_cache, 2)
        with pytest.raises(MergeError):
            merge_shard_reports([shards[0], shards[0]])

    def test_merge_grid_mismatch_rejected(self, shared_cache):
        other_grid = SweepGrid(benchmarks=("SP",), schemes=("PAE",), scale=SCALE)
        a = shard_report(
            GRID, ShardSpec(index=1, count=2), SweepRunner(cache_dir=shared_cache)
        )
        b = shard_report(
            other_grid, ShardSpec(index=2, count=2),
            SweepRunner(cache_dir=shared_cache),
        )
        with pytest.raises(MergeError, match="different grids"):
            merge_shard_reports([a, b])

    @pytest.mark.parametrize("schema", [0, "1", [1]])
    def test_merge_schema_mismatch_rejected(self, shared_cache, schema):
        """Any JSON value that differs is a mismatch, lists included."""
        a, b = self._shards(shared_cache, 2)
        with pytest.raises(MergeError, match="disagree on cache schema"):
            merge_shard_reports([a, {**b, "schema": schema}])

    @pytest.mark.parametrize("schemas", [[1], [-3], [1, 1]],
                             ids=["one-at-1", "one-at-minus-3", "two-at-1"])
    def test_merge_stale_schema_rejected(self, shared_cache, schemas):
        """Shards that agree on an old cache schema hold stale results."""
        shards = [
            {**shard, "schema": schema}
            for shard, schema in zip(
                self._shards(shared_cache, len(schemas)), schemas
            )
        ]
        with pytest.raises(MergeError) as caught:
            merge_shard_reports(shards)
        assert str(caught.value).startswith(
            f"shard report 1 has cache schema {schemas[0]}, not the current "
            f"{CACHE_SCHEMA_VERSION}"
        )

    def test_merge_current_schema_accepted(self, shared_cache):
        (shard,) = self._shards(shared_cache, 1)
        assert shard["schema"] == CACHE_SCHEMA_VERSION
        merged = merge_shard_reports([shard])
        assert len(merged["runs"]) == len(GRID.configs())

    def test_merge_non_shard_report_rejected(self):
        with pytest.raises(MergeError, match="not a shard report"):
            merge_shard_reports([{"format": "repro-sweep-report/1"}])
        with pytest.raises(MergeError, match="no shard reports"):
            merge_shard_reports([])

    def test_merge_from_incomplete_cache_rejected(self, tmp_path):
        with pytest.raises(MergeError, match="not in cache"):
            report_from_cache(GRID, ResultCache(tmp_path / "empty"))


class TestDefaultWorkers:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3

    def test_env_floor_is_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert default_workers() == 1

    def test_env_invalid_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "lots")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            default_workers()

    def test_unset_uses_cpus(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert default_workers() >= 1


class TestSharedCache:
    """Two processes sweeping overlapping grids into one cache directory.

    Nothing coordinates them: a config in both grids may be computed
    twice, and the atomic, content-addressed record writes make that
    harmless.
    """

    GRIDS = (("MT,SP", "PM,PAE"), ("SP,LU", "PM,PAE"))

    @staticmethod
    def _sweep(benchmarks, schemes, cache_dir, output):
        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "sweep",
             "--benchmarks", benchmarks, "--schemes", schemes,
             "--scale", str(SCALE), "--workers", "2",
             "--cache-dir", str(cache_dir), "-o", str(output)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )

    def test_overlapping_sweeps_share_one_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"
        procs = [
            self._sweep(b, s, cache_dir, tmp_path / f"report{i}.json")
            for i, (b, s) in enumerate(self.GRIDS)
        ]
        for proc in procs:
            _, err = proc.communicate(timeout=600)
            assert proc.returncode == 0, err

        uncached = SweepRunner()
        for i, (benchmarks, schemes) in enumerate(self.GRIDS):
            grid = SweepGrid(
                benchmarks=tuple(benchmarks.split(",")),
                schemes=tuple(schemes.split(",")), scale=SCALE,
            )
            expected = render_report(sweep_report(grid, uncached))
            assert (tmp_path / f"report{i}.json").read_text() == expected

        # MT, SP, LU x BASE, PM, PAE: nine distinct configs, each one
        # record and one sidecar, and nothing else.
        files = sorted(
            path.relative_to(cache_dir).as_posix()
            for path in cache_dir.rglob("*") if path.is_file()
        )
        assert len(files) == 18
        for name in files:
            hh, _, leaf = name.partition("/")
            key = leaf.split(".", 1)[0]
            assert key[:2] == hh and len(key) == 64, name
            assert leaf in (f"{key}.json", f"{key}.meta.json"), name

        cache = ResultCache(cache_dir)
        union = SweepGrid(
            benchmarks=("MT", "SP", "LU"), schemes=("PM", "PAE"),
            scale=SCALE,
        )
        assert all(cache.get(c) is not None for c in union.configs())
        assert len(cache) == 9
        assert cache.stats.corrupt == 0
        runner = SweepRunner(cache_dir=cache_dir)
        runner.run_many(union.configs())
        assert runner.stats.cache_hits == 9
        assert runner.stats.executed == 0

    @pytest.mark.parametrize("make", [
        lambda: SweepRunner(claims=True),
        lambda: RunnerPool(size=1, claims=True),
        lambda: ReproServer(port=0, claims=True),
    ], ids=["SweepRunner", "RunnerPool", "ReproServer"])
    def test_no_claims_keyword(self, make):
        with pytest.raises(TypeError):
            make()


class TestShardedSweepStats:
    def test_shard_runs_only_its_slice(self, tmp_path):
        spec = ShardSpec(index=1, count=2)
        owned = spec.select(GRID.configs())
        runner = SweepRunner(cache_dir=tmp_path)
        report = shard_report(GRID, spec, runner)
        assert runner.stats.requested == len(owned)
        assert len(report["runs"]) == len(owned)

    def test_shard_reports_round_trip_through_json(self, tmp_path):
        cache = tmp_path / "cache"
        shards = [
            shard_report(GRID, ShardSpec(index=i, count=2),
                         SweepRunner(cache_dir=cache))
            for i in (1, 2)
        ]
        reloaded = [json.loads(json.dumps(s)) for s in shards]
        single = render_report(sweep_report(GRID, SweepRunner(cache_dir=cache)))
        assert render_report(merge_shard_reports(reloaded)) == single
