"""Warmed-state stream memo: keys, LRU bound, sweep reuse.

The :class:`StateCache` shares each estimated kernel's replay stream
across every scheme of a sweep — the key :meth:`RunContext.auto`
gives it deliberately excludes the mapping scheme.  These tests pin
the memo (round trip, miss, LRU bound), the key's parts, and the
headline property: a multi-scheme sweep builds each kernel's stream
exactly once and serves every other scheme from the memo of its
:class:`RunContext`, with or without a result cache, without changing
any observable result.
"""

import numpy as np
import pytest

from repro.runner import RunConfig, RunContext, SweepRunner
from repro.runner.state_cache import _MEMO_CAP, StateCache
from repro.sim.replay import KernelStream

BASE_KEY = ("SC", 0.5, "gddr5", 12)


def memo_key(kernel_index, wave_cap=2):
    return (*BASE_KEY, kernel_index, wave_cap)


def auto_config(**changes):
    fields = dict(benchmark="SC", scheme="BASE", scale=0.5, fidelity="auto")
    return RunConfig(**dict(fields, **changes))


def streams_stored(configs, lookups=((0, 2),)):
    """Streams one context stores when each config looks each
    ``(kernel_index, wave_cap)`` up, in order."""
    context = RunContext()
    for config in configs:
        kernels = context.workload(config.benchmark, config.scale).kernels
        auto = context.auto(config)
        for kernel_index, wave_cap in lookups:
            auto.stream(kernel_index, kernels[kernel_index], wave_cap)
    return context.state_cache.stats.stores


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
        cache.put(memo_key(3), stream)
        assert cache.get(memo_key(3)) is stream
        assert cache.stats.hits == 1 and cache.stats.stores == 1

    def test_miss_on_absent_key(self):
        cache = StateCache()
        assert cache.get(memo_key(0)) is None
        assert cache.stats.misses == 1

    def test_least_recently_used_stream_is_evicted(self):
        cache = StateCache()
        stream = small_stream()
        keys = [memo_key(k) for k in range(_MEMO_CAP + 1)]
        for key in keys[:-1]:
            cache.put(key, stream)
        assert cache.get(keys[0]) is stream  # now the most recently used
        cache.put(keys[-1], stream)
        assert len(cache) == _MEMO_CAP
        assert cache.get(keys[0]) is stream
        assert cache.get(keys[1]) is None


class TestKeys:
    def test_key_is_scheme_free_by_construction(self):
        """The key carries no scheme, so two schemes sweeping the same
        workload share one stream."""
        configs = [auto_config(scheme="BASE"), auto_config(scheme="PAE")]
        assert streams_stored(configs) == 1

    @pytest.mark.parametrize("field,value", [
        ("scale", 1.0),
        ("memory", "stacked"),
        ("n_sms", 8),
    ])
    def test_key_depends_on_identity_fields(self, field, value):
        configs = [auto_config(), auto_config(**{field: value})]
        assert streams_stored(configs) == 2

    def test_key_depends_on_kernel_and_wave_cap(self):
        lookups = ((0, 2), (1, 2), (0, 3), (0, 2))
        assert streams_stored([auto_config()], lookups) == 3


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
