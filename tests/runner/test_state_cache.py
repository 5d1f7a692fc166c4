"""Warmed-state stream cache: records, keys, pruning, sweep reuse.

The :class:`StateCache` shares each estimated kernel's replay stream
across every scheme of a sweep — its key deliberately excludes the
mapping scheme.  These tests pin the record plumbing (round trip,
corrupt-record self-heal, sidecars, prune semantics) and the headline
property: a multi-scheme sweep builds each kernel's stream exactly
once and serves every other scheme from disk, without changing any
observable result.
"""

import io

import numpy as np
import pytest

from repro.runner import RunConfig, SweepRunner
from repro.runner.state_cache import STATE_SCHEMA_VERSION, StateCache
from repro.runner.worker import _state_cache_for
from repro.sim.replay import KernelStream

BASE_KEY = {
    "workload": "SC",
    "scale": 0.5,
    "fidelity": {"kind": "auto"},
    "memory": "gddr5",
    "n_sms": 12,
}


def small_stream(n_ops=16, n_tbs=4, wave_cap=2, seed=0):
    rng = np.random.default_rng(seed)
    return KernelStream(
        addresses=rng.integers(0, 1 << 30, n_ops).astype(np.uint64) * 128,
        writes=rng.random(n_ops) < 0.3,
        tb_ordinals=np.sort(
            rng.integers(0, n_tbs, n_ops).astype(np.int32)
        ),
        n_tbs=n_tbs,
        wave_cap=wave_cap,
    )


def npz_bytes(payload):
    """*payload* as stored bytes: raw bytes as is, a dict as an npz."""
    if isinstance(payload, bytes):
        return payload
    buffer = io.BytesIO()
    np.savez(buffer, **payload)
    return buffer.getvalue()


# A sound record's fields (waves of 2 TBs: ordinals 0-1, then 2-3)...
GOOD_RECORD = dict(
    addresses=np.arange(6, dtype=np.uint64) * 128,
    writes=np.array([0, 1, 0, 0, 1, 0], dtype=bool),
    tb_ordinals=np.array([0, 1, 0, 2, 3, 2], dtype=np.int32),
    n_tbs=np.int64(4),
    wave_cap=np.int64(2),
)

# ...and records that cannot be read back as a KernelStream: one that
# is not an archive, and ones that parse but break a stream invariant.
BAD_RECORDS = [
    b"not an npz archive",
    dict(GOOD_RECORD, writes=GOOD_RECORD["writes"][:-1]),
    dict(GOOD_RECORD, addresses=GOOD_RECORD["addresses"].reshape(2, 3)),
    dict(GOOD_RECORD, tb_ordinals=GOOD_RECORD["tb_ordinals"] - 1),
    dict(GOOD_RECORD, n_tbs=np.int64(3)),
    dict(GOOD_RECORD, tb_ordinals=GOOD_RECORD["tb_ordinals"][::-1].copy()),
    dict(GOOD_RECORD, wave_cap=np.int64(0)),
    dict(GOOD_RECORD, n_tbs=np.array([4, 4])),
]


class TestRecords:
    def test_round_trip(self, tmp_path):
        cache = StateCache(tmp_path)
        stream = small_stream()
        key = cache.key_for(BASE_KEY, kernel_index=3, wave_cap=2)
        cache.put(key, stream, benchmark="SC", kernel=3)
        got = cache.get(key)
        assert got is not None
        np.testing.assert_array_equal(got.addresses, stream.addresses)
        np.testing.assert_array_equal(got.writes, stream.writes)
        np.testing.assert_array_equal(got.tb_ordinals, stream.tb_ordinals)
        assert got.n_tbs == stream.n_tbs
        assert got.wave_cap == stream.wave_cap
        assert cache.stats.hits == 1 and cache.stats.stores == 1

    def test_miss_on_absent_key(self, tmp_path):
        cache = StateCache(tmp_path)
        key = cache.key_for(BASE_KEY, kernel_index=0, wave_cap=2)
        assert cache.get(key) is None
        assert cache.stats.misses == 1

    def test_corrupt_record_self_heals(self, tmp_path):
        cache = StateCache(tmp_path)
        key = cache.key_for(BASE_KEY, kernel_index=0, wave_cap=2)
        cache.path_for(key).parent.mkdir(parents=True, exist_ok=True)
        cache.path_for(key).write_bytes(npz_bytes(GOOD_RECORD))
        assert cache.get(key) is not None, "the sound record reads back"
        for corrupt, payload in enumerate(BAD_RECORDS, start=1):
            cache = StateCache(tmp_path)  # empty memo: read from disk
            cache.path_for(key).write_bytes(npz_bytes(payload))
            assert cache.get(key) is None
            assert cache.stats.corrupt == 1, f"bad record {corrupt}"
            assert not cache.path_for(key).exists(), "corrupt record deleted"
        # The caller rebuilds and re-puts; the cache works again.
        cache.put(key, small_stream())
        assert cache.get(key) is not None

    def test_poisoned_record_heals_the_run(self, tmp_path):
        """A record that parses but is inconsistent (``writes`` shorter
        than ``addresses``) is counted, deleted and rebuilt by the next
        run, whose result is byte-identical to a run without a cache."""
        from repro.core import hynix_gddr5_map
        from repro.registry import make_scheme, make_workload
        from repro.sim.fidelity import parse_fidelity
        from repro.sim.gpu_system import GPUSystem

        workload = make_workload("SC", scale=0.5)

        def run(state_cache=None):
            return GPUSystem(make_scheme("BASE", hynix_gddr5_map())).run(
                workload, fidelity=parse_fidelity("auto"),
                state_cache=state_cache, state_key=BASE_KEY,
            ).to_dict()

        clean = run()
        run(StateCache(tmp_path))
        victim = StateCache(tmp_path).entries()[0]
        with np.load(victim.path) as archive:
            record = {name: archive[name] for name in archive.files}
        record["writes"] = record["writes"][:-1]
        victim.path.write_bytes(npz_bytes(record))

        healing = StateCache(tmp_path)
        assert run(healing) == clean
        assert healing.stats.corrupt == 1
        assert healing.stats.stores == 1, "the poisoned stream is rebuilt"
        assert StateCache(tmp_path).get(victim.key) is not None

    def test_meta_sidecar(self, tmp_path):
        cache = StateCache(tmp_path)
        stream = small_stream()
        key = cache.key_for(BASE_KEY, kernel_index=1, wave_cap=2)
        cache.put(key, stream, benchmark="SC", kernel=1)
        meta = cache.get_meta(key)
        assert meta["schema"] == STATE_SCHEMA_VERSION
        assert meta["ops"] == stream.n_ops
        assert meta["benchmark"] == "SC"
        assert meta["kernel"] == 1


class TestKeys:
    def test_key_is_scheme_free_by_construction(self, tmp_path):
        """The base identity document carries no scheme field, so two
        schemes sweeping the same workload derive the same key."""
        cache = StateCache(tmp_path)
        assert "scheme" not in BASE_KEY
        key_a = cache.key_for(dict(BASE_KEY), kernel_index=0, wave_cap=2)
        key_b = cache.key_for(dict(BASE_KEY), kernel_index=0, wave_cap=2)
        assert key_a == key_b

    @pytest.mark.parametrize("field,value", [
        ("scale", 1.0),
        ("memory", "hbm"),
        ("n_sms", 8),
        ("fidelity", {"kind": "auto", "exemplars": 3}),
    ])
    def test_key_depends_on_identity_fields(self, tmp_path, field, value):
        cache = StateCache(tmp_path)
        changed = dict(BASE_KEY, **{field: value})
        assert (
            cache.key_for(changed, 0, 2)
            != cache.key_for(BASE_KEY, 0, 2)
        )

    def test_key_depends_on_kernel_and_wave_cap(self, tmp_path):
        cache = StateCache(tmp_path)
        base = cache.key_for(BASE_KEY, 0, 2)
        assert cache.key_for(BASE_KEY, 1, 2) != base
        assert cache.key_for(BASE_KEY, 0, 3) != base


class TestInspection:
    def test_entries_and_usage(self, tmp_path):
        cache = StateCache(tmp_path)
        for kernel in range(3):
            key = cache.key_for(BASE_KEY, kernel, 2)
            cache.put(key, small_stream(seed=kernel), benchmark="SC")
        entries = cache.entries()
        assert len(entries) == len(cache) == 3
        assert all(e.schema == STATE_SCHEMA_VERSION for e in entries)
        assert all(e.scheme is None for e in entries)
        usage = cache.usage()
        assert usage["entries"] == 3
        assert usage["bytes"] == sum(e.size_bytes for e in entries)

    def test_prune_by_schema_and_stale(self, tmp_path):
        import json

        cache = StateCache(tmp_path)
        for kernel in range(3):
            cache.put(cache.key_for(BASE_KEY, kernel, 2), small_stream())
        # Forge one record's sidecar to an old schema.
        victim = cache.entries()[0]
        meta_path = cache.meta_path_for(victim.key)
        meta = json.loads(meta_path.read_text())
        meta["schema"] = STATE_SCHEMA_VERSION - 1
        meta_path.write_text(json.dumps(meta))

        removed, kept = cache.prune(
            schema_versions=[STATE_SCHEMA_VERSION - 1]
        )
        assert (removed, kept) == (1, 2)
        assert not cache.path_for(victim.key).exists()
        removed, kept = cache.prune(stale=True)
        assert (removed, kept) == (0, 2)


class TestSweepReuse:
    def test_state_dir_defaults_under_cache_dir(self, tmp_path):
        runner = SweepRunner(cache_dir=tmp_path)
        assert runner.state_dir == str(tmp_path / "state")

    def test_state_dir_explicit_and_disabled(self, tmp_path):
        assert SweepRunner().state_dir is None

    def test_scheme_sweep_builds_each_kernel_stream_once(self, tmp_path):
        """The headline reuse property: across a 3-scheme sweep, each
        estimated kernel's stream is stored once (by the first scheme)
        and every later scheme hits it."""
        schemes = ["BASE", "PAE", "PM"]
        configs = [
            RunConfig("SC", s, scale=0.5, fidelity="auto") for s in schemes
        ]
        runner = SweepRunner(cache_dir=tmp_path)
        baseline = [
            r.to_dict() for r in SweepRunner().run_many(configs)
        ]
        results = [r.to_dict() for r in runner.run_many(configs)]

        cache = _state_cache_for(runner.state_dir)
        n_kernels = len(cache)
        assert n_kernels > 0, "SC@0.5 must have estimate-replayed kernels"
        assert cache.stats.stores == n_kernels
        assert cache.stats.misses == n_kernels
        assert cache.stats.hits == n_kernels * (len(schemes) - 1)
        # Reuse must be invisible in the results.
        assert results == baseline

    def test_exact_fidelity_never_touches_state_cache(self, tmp_path):
        runner = SweepRunner(cache_dir=tmp_path)
        runner.run_one(RunConfig("SP", "BASE", scale=0.25))
        cache = _state_cache_for(runner.state_dir)
        assert cache.stats.stores == 0
        assert cache.stats.misses == 0
