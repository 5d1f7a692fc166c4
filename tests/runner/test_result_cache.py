"""Tests for the on-disk result cache: round trips, accounting, recovery."""

import json

import pytest

from repro.dram.power import DRAMPowerBreakdown
from repro.runner.cache import ResultCache
from repro.runner.config import CACHE_SCHEMA_VERSION, RunConfig
from repro.sim.results import SimulationResult


def make_result(workload="MT", scheme="PAE", cycles=1000) -> SimulationResult:
    return SimulationResult(
        workload=workload,
        scheme=scheme,
        cycles=cycles,
        requests=64,
        l1_miss_rate=0.5,
        llc_miss_rate=0.25,
        llc_accesses=32,
        noc_mean_latency=14.5,
        llc_parallelism=3.0,
        channel_parallelism=2.0,
        bank_parallelism=4.0,
        row_hit_rate=0.75,
        dram_activates=8,
        dram_reads=24,
        dram_writes=4,
        dram_power=DRAMPowerBreakdown(
            background=16.0, refresh=2.4, activate=1.0, read=0.5, write=0.1
        ),
        gpu_power=55.0,
        instructions=6400.0,
        metadata={"events": 123},
    )


CONFIG = RunConfig("MT", "PAE", scale=0.25)


class TestRoundTrip:
    def test_put_then_get(self, tmp_path):
        cache = ResultCache(tmp_path)
        stored = make_result()
        cache.put(CONFIG, stored)
        loaded = cache.get(CONFIG)
        assert loaded == stored
        assert cache.stats.stores == 1
        assert cache.stats.hits == 1

    def test_miss_on_empty_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(CONFIG) is None
        assert cache.stats.misses == 1

    def test_different_config_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(CONFIG, make_result())
        other = RunConfig("MT", "PAE", scale=0.5)
        assert cache.get(other) is None

    def test_record_layout(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put(CONFIG, make_result())
        key = CONFIG.config_hash()
        assert path.name == f"{key}.json"
        assert path.parent.name == key[:2]
        record = json.loads(path.read_text())
        assert record["config"] == CONFIG.to_dict()
        assert len(cache) == 1

    def test_float_exactness(self, tmp_path):
        """JSON repr round-trip: cached floats are bit-identical."""
        cache = ResultCache(tmp_path)
        stored = make_result(cycles=7)
        cache.put(CONFIG, stored)
        loaded = cache.get(CONFIG)
        assert loaded.noc_mean_latency == stored.noc_mean_latency
        assert loaded.dram_power.total == stored.dram_power.total


class TestCorruptionRecovery:
    def _corrupt(self, cache, text) -> None:
        path = cache.path_for(CONFIG.config_hash())
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)

    @pytest.mark.parametrize("garbage", [
        "", "not json at all", '{"truncated": ',
        '{"config": {}, "result": {"type": "wrong/9"}}',
        '{"config": {}}',  # missing result
        '[1, 2, 3]',
    ])
    def test_corrupt_record_is_a_miss_and_removed(self, tmp_path, garbage):
        cache = ResultCache(tmp_path)
        self._corrupt(cache, garbage)
        assert cache.get(CONFIG) is None
        assert cache.stats.corrupt == 1
        assert not cache.path_for(CONFIG.config_hash()).exists()

    def test_recovers_after_rewrite(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._corrupt(cache, "garbage")
        assert cache.get(CONFIG) is None
        cache.put(CONFIG, make_result())
        assert cache.get(CONFIG) == make_result()


class TestSharedCache:
    def test_two_instances_share_records(self, tmp_path):
        writer = ResultCache(tmp_path)
        writer.put(CONFIG, make_result())
        reader = ResultCache(tmp_path)
        assert reader.get(CONFIG) == make_result()
        assert reader.stats.hits == 1


class TestRuntimeMetadata:
    def test_sidecar_written_with_wall_seconds(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(CONFIG, make_result(), wall_seconds=1.5)
        key = CONFIG.config_hash()
        meta = cache.get_meta(key)
        assert meta["wall_seconds"] == 1.5
        assert meta["schema"] == CACHE_SCHEMA_VERSION
        assert meta["events"] == 123  # from result.metadata
        assert meta["benchmark"] == "MT"
        assert meta["scale"] == 0.25

    def test_no_sidecar_without_wall_seconds(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(CONFIG, make_result())
        assert cache.get_meta(CONFIG.config_hash()) is None

    def test_len_counts_records_not_sidecars(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(CONFIG, make_result(), wall_seconds=0.2)
        assert len(cache) == 1

    def test_peek_does_not_count(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.peek(CONFIG) is None
        cache.put(CONFIG, make_result())
        assert cache.peek(CONFIG) == make_result()
        assert cache.stats.hits == 0
        assert cache.stats.misses == 0


def _write_stale_record(root, config: RunConfig, schema: int, with_meta: bool):
    """Plant a record keyed as an older CACHE_SCHEMA_VERSION would."""
    from repro.core.serialize import canonical_json, stable_hash

    payload = config.to_dict()
    payload["__schema__"] = schema
    key = stable_hash(payload)
    path = root / key[:2] / f"{key}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    record = {"config": config.to_dict(), "result": make_result().to_dict()}
    path.write_text(canonical_json(record) + "\n")
    if with_meta:
        (root / key[:2] / f"{key}.meta.json").write_text(
            canonical_json({"schema": schema, "wall_seconds": 0.5}) + "\n"
        )
    return key


class TestEntriesAndPrune:
    def test_schema_classified_from_sidecar_and_by_probing(self, tmp_path):
        cache = ResultCache(tmp_path)
        with_meta = _write_stale_record(tmp_path, CONFIG, schema=1, with_meta=True)
        probed = _write_stale_record(
            tmp_path, RunConfig("SP", "BASE", scale=0.25), schema=1,
            with_meta=False,
        )
        cache.put(CONFIG, make_result(), wall_seconds=0.1)
        assert cache.schema_of(with_meta) == 1
        assert cache.schema_of(probed) == 1  # rehash probing, no sidecar
        assert cache.schema_of(CONFIG.config_hash()) == CACHE_SCHEMA_VERSION

    def test_entries_report_schema_and_size(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(CONFIG, make_result(), wall_seconds=0.1)
        _write_stale_record(tmp_path, CONFIG, schema=1, with_meta=True)
        entries = cache.entries()
        assert len(entries) == 2
        assert sorted(e.schema for e in entries) == [1, CACHE_SCHEMA_VERSION]
        assert all(e.size_bytes > 0 for e in entries)

    def test_prune_by_schema_version(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(CONFIG, make_result(), wall_seconds=0.1)
        _write_stale_record(tmp_path, CONFIG, schema=1, with_meta=True)
        removed, kept = cache.prune(schema_versions=[1])
        assert (removed, kept) == (1, 1)
        # The current-schema record survived (and its sidecar too).
        assert cache.get(CONFIG) == make_result()

    def test_prune_stale_keeps_only_current(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(CONFIG, make_result(), wall_seconds=0.1)
        _write_stale_record(tmp_path, CONFIG, schema=1, with_meta=True)
        _write_stale_record(
            tmp_path, RunConfig("SP", "BASE", scale=0.25), schema=1,
            with_meta=False,
        )
        removed, kept = cache.prune(stale=True)
        assert (removed, kept) == (2, 1)
        assert len(cache) == 1

    def test_prune_nothing_matches(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(CONFIG, make_result(), wall_seconds=0.1)
        assert cache.prune(schema_versions=[99]) == (0, 1)
