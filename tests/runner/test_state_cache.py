"""Warmed-state stream memo: keys, LRU bound, sweep reuse.

The :class:`StateCache` shares each estimated kernel's replay stream
across every scheme of a sweep — its key deliberately excludes the
mapping scheme.  These tests pin the memo (round trip, miss, LRU
bound) and the headline property: a multi-scheme sweep builds each
kernel's stream exactly once and serves every other scheme from the
memo of its :class:`RunContext`, with or without a result cache,
without changing any observable result.
"""

import numpy as np
import pytest

from repro.runner import RunConfig, RunContext, SweepRunner
from repro.runner.state_cache import _MEMO_CAP, StateCache
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


class TestRecords:
    def test_round_trip(self):
        cache = StateCache()
        stream = small_stream()
        key = cache.key_for(BASE_KEY, kernel_index=3, wave_cap=2)
        cache.put(key, stream)
        assert cache.get(key) is stream
        assert cache.stats.hits == 1 and cache.stats.stores == 1

    def test_miss_on_absent_key(self):
        cache = StateCache()
        key = cache.key_for(BASE_KEY, kernel_index=0, wave_cap=2)
        assert cache.get(key) is None
        assert cache.stats.misses == 1

    def test_least_recently_used_stream_is_evicted(self):
        cache = StateCache()
        stream = small_stream()
        keys = [cache.key_for(BASE_KEY, k, 2) for k in range(_MEMO_CAP + 1)]
        for key in keys[:-1]:
            cache.put(key, stream)
        assert cache.get(keys[0]) is stream  # now the most recently used
        cache.put(keys[-1], stream)
        assert len(cache) == _MEMO_CAP
        assert cache.get(keys[0]) is stream
        assert cache.get(keys[1]) is None


class TestKeys:
    def test_key_is_scheme_free_by_construction(self):
        """The base identity document carries no scheme field, so two
        schemes sweeping the same workload derive the same key."""
        cache = StateCache()
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
    def test_key_depends_on_identity_fields(self, field, value):
        cache = StateCache()
        changed = dict(BASE_KEY, **{field: value})
        assert (
            cache.key_for(changed, 0, 2)
            != cache.key_for(BASE_KEY, 0, 2)
        )

    def test_key_depends_on_kernel_and_wave_cap(self):
        cache = StateCache()
        base = cache.key_for(BASE_KEY, 0, 2)
        assert cache.key_for(BASE_KEY, 1, 2) != base
        assert cache.key_for(BASE_KEY, 0, 3) != base


class TestSweepReuse:
    @pytest.mark.parametrize(
        "with_cache_dir", [False, True], ids=["no-cache-dir", "cache-dir"]
    )
    def test_scheme_sweep_builds_each_kernel_stream_once(
        self, tmp_path, with_cache_dir
    ):
        """The headline reuse property: across a 3-scheme sweep, each
        estimated kernel's stream is stored once (by the first scheme)
        and every later scheme hits it, whether or not the sweep has a
        result cache."""
        schemes = ["BASE", "PAE", "PM"]
        configs = [
            RunConfig("SC", s, scale=0.5, fidelity="auto") for s in schemes
        ]
        cache_dir = tmp_path / "cache"
        context = RunContext()
        runner = SweepRunner(
            context=context,
            cache_dir=cache_dir if with_cache_dir else None,
        )
        results = [r.to_dict() for r in runner.run_many(configs)]

        cache = context.state_cache
        n_kernels = len(cache)
        assert n_kernels > 0, "SC@0.5 must have estimate-replayed kernels"
        assert cache.stats.stores == cache.stats.misses == n_kernels
        assert cache.stats.hits == n_kernels * (len(schemes) - 1)
        # Reuse must be invisible in the results.
        assert results == [
            RunContext().execute(config).to_dict() for config in configs
        ]
        assert not (cache_dir / "state").exists()

    def test_exact_fidelity_never_touches_state_cache(self, tmp_path):
        context = RunContext()
        runner = SweepRunner(context=context, cache_dir=tmp_path)
        runner.run_one(RunConfig("SP", "BASE", scale=0.25))
        assert context.state_cache.stats.stores == 0
        assert context.state_cache.stats.misses == 0
