"""Replay plane vs its per-op oracle: byte-identical counters and state.

:mod:`repro.sim.replay` replays op streams through the warmed caches
with one pass over all of them; ``tests/replay_oracle.py`` keeps the
per-cache loops it replaced as the oracle.  These property tests pin
the plane to the oracle: over random op streams (and the degenerate
0-op / 1-op cases, and non-power-of-two set counts), the warm passes
must report identical stats, identical forwarded / miss / writeback
outcomes in identical order, and leave every set holding the same
(line, dirty) entries in the same recency order.  Whole sampled and
auto runs must be byte-identical with the oracle swapped in.

The absolute LRU tick values are allowed to differ — the plane stamps
stream positions rather than per-bump counters — so warmed state is
compared by recency *rank* within each set, which is the only thing
victim selection ever reads.
"""

import random

import numpy as np
import pytest

import replay_oracle
from repro.core import hynix_gddr5_map
from repro.gpu.cache import SetAssociativeCache
from repro.registry import make_scheme, make_workload
from repro.sim import replay
from repro.sim.fidelity import parse_fidelity
from repro.sim.gpu_system import GPUSystem, plan_auto
from repro.sim.replay import build_kernel_stream, warm_back, warm_through

AMAP = hynix_gddr5_map()
LINE = 128


def canonical_state(cache):
    """Per-set (line, dirty) entries in LRU-to-MRU order.

    Use values are unique within a cache, so recency rank is
    well-defined; comparing ranks instead of raw ticks makes the check
    independent of the stamping scheme.
    """
    state = []
    for entries in cache.line_tables:
        ordered = sorted(entries.items(), key=lambda item: item[1][0])
        state.append([(line, bool(e[1])) for line, e in ordered])
    return state


def random_stream(rng, n_ops, n_caches, sets, ways):
    """A random op stream with enough line reuse to force evictions."""
    pool_size = max(1, sets * ways * 2)
    pool = [rng.getrandbits(30) * LINE for _ in range(pool_size)]
    lines = np.array(
        [pool[rng.randrange(pool_size)] for _ in range(n_ops)],
        dtype=np.int64,
    )
    cache_ids = np.array(
        [rng.randrange(n_caches) for _ in range(n_ops)], dtype=np.int64
    )
    writes = np.array(
        [rng.random() < 0.4 for _ in range(n_ops)], dtype=bool
    )
    return cache_ids, lines, writes


def make_caches(n_caches, sets, ways):
    return [
        SetAssociativeCache(sets, ways, LINE, name=f"c{i}")
        for i in range(n_caches)
    ]


def oracle_reference(caches, cache_ids, lines, writes, set_ids, policy):
    """Run each cache's sub-stream through the oracle.

    Returns per-cache ``(sub_positions, result)`` where *result* is
    whatever the oracle function returned for that cache.
    """
    warm = {
        "through": replay_oracle.warm_through_many,
        "back": replay_oracle.warm_back_many,
    }[policy]
    out = {}
    for c, cache in enumerate(caches):
        sub = np.flatnonzero(cache_ids == c)
        out[c] = (sub, warm(
            cache,
            [int(x) for x in lines[sub]],
            [bool(w) for w in writes[sub]],
            [int(s) for s in set_ids[sub]],
        ))
    return out


GEOMETRIES = [
    (1, 4, 2),    # single cache, tiny
    (2, 8, 4),    # pow2 sets
    (3, 12, 2),   # non-pow2 set count (legacy fold-then-modulo path)
    (4, 16, 1),   # direct-mapped
    (2, 12, 3),   # non-pow2 sets, odd ways
]

SIZES = [0, 1, 7, 40, 300]  # empty, single op, sparse to eviction-heavy


class TestWarmThroughEquiv:
    @pytest.mark.parametrize("n_caches,sets,ways", GEOMETRIES)
    @pytest.mark.parametrize("n_ops", SIZES)
    def test_stats_forwarded_and_state_match(self, n_caches, sets, ways,
                                             n_ops):
        rng = random.Random(10_000 * n_ops + 100 * sets + ways)
        cache_ids, lines, writes = random_stream(
            rng, n_ops, n_caches, sets, ways
        )
        vec = make_caches(n_caches, sets, ways)
        ref = make_caches(n_caches, sets, ways)
        set_ids = vec[0].set_indices_array(lines.astype(np.uint64))

        fwd_mask = warm_through(vec, cache_ids, lines, writes, set_ids)
        oracle = oracle_reference(
            ref, cache_ids, lines, writes, set_ids, "through"
        )

        for c in range(n_caches):
            sub, fwd_positions = oracle[c]
            got = [int(p) for p in np.flatnonzero(fwd_mask[sub])]
            assert got == fwd_positions, f"forwarded set differs (cache {c})"
            assert vec[c].stats.__dict__ == ref[c].stats.__dict__
            assert canonical_state(vec[c]) == canonical_state(ref[c])

    def test_repeated_calls_keep_recency_coherent(self):
        """Recency must stay correct across successive batches."""
        rng = random.Random(7)
        vec = make_caches(2, 8, 2)
        ref = make_caches(2, 8, 2)
        for round_no in range(5):
            cache_ids, lines, writes = random_stream(rng, 60, 2, 8, 2)
            set_ids = vec[0].set_indices_array(lines.astype(np.uint64))
            warm_through(vec, cache_ids, lines, writes, set_ids)
            oracle_reference(ref, cache_ids, lines, writes, set_ids, "through")
            for c in range(2):
                assert canonical_state(vec[c]) == canonical_state(ref[c])
                assert vec[c].stats.__dict__ == ref[c].stats.__dict__


class TestWarmBackEquiv:
    @pytest.mark.parametrize("n_caches,sets,ways", GEOMETRIES)
    @pytest.mark.parametrize("n_ops", SIZES)
    def test_stats_misses_writebacks_and_state_match(self, n_caches, sets,
                                                     ways, n_ops):
        rng = random.Random(20_000 * n_ops + 100 * sets + ways)
        cache_ids, lines, writes = random_stream(
            rng, n_ops, n_caches, sets, ways
        )
        vec = make_caches(n_caches, sets, ways)
        ref = make_caches(n_caches, sets, ways)
        set_ids = vec[0].set_indices_array(lines.astype(np.uint64))

        miss_mask, wb_line = warm_back(vec, cache_ids, lines, writes, set_ids)
        oracle = oracle_reference(
            ref, cache_ids, lines, writes, set_ids, "back"
        )

        for c in range(n_caches):
            sub, (miss_positions, writebacks) = oracle[c]
            got_misses = [int(p) for p in np.flatnonzero(miss_mask[sub])]
            assert got_misses == miss_positions, f"read misses differ ({c})"
            sub_wb = wb_line[sub]
            got_wb = [int(line) for line in sub_wb[sub_wb >= 0]]
            assert got_wb == writebacks, f"writeback order differs ({c})"
            assert vec[c].stats.__dict__ == ref[c].stats.__dict__
            assert canonical_state(vec[c]) == canonical_state(ref[c])

    def test_dirty_victim_line_extracted_before_overwrite(self):
        """A dirty line evicted by the very op that replaces it must be
        reported with the *victim's* address, not the newcomer's."""
        cache_v = make_caches(1, 1, 1)  # 1 set, 1 way: every miss evicts
        cache_r = make_caches(1, 1, 1)
        lines = np.array([0 * LINE, 1 * LINE, 2 * LINE], dtype=np.int64)
        writes = np.array([True, True, False], dtype=bool)
        ids = np.zeros(3, dtype=np.int64)
        set_ids = cache_v[0].set_indices_array(lines.astype(np.uint64))
        _, wb_line = warm_back(cache_v, ids, lines, writes, set_ids)
        _, wbs = replay_oracle.warm_back_many(
            cache_r[0], [int(x) for x in lines], [bool(w) for w in writes],
            [int(s) for s in set_ids],
        )
        assert [int(x) for x in wb_line[wb_line >= 0]] == wbs == [0, LINE]


def on_both_planes(monkeypatch, run):
    """``run()`` on the production plane, then with the oracle in place.

    Every caller reaches the plane through the ``replay.replay_ops``
    module attribute, so patching it swaps the whole replay path.
    """
    production = run()
    monkeypatch.setattr(replay, "replay_ops", replay_oracle.replay_ops)
    return production, run()


class TestFullSystemEquiv:
    """Whole runs on the plane and on the oracle agree byte for byte."""

    @pytest.mark.parametrize("scheme_name", ["BASE", "PAE"])
    def test_auto_run_results_identical(self, scheme_name, monkeypatch):
        workload = make_workload("SC", scale=0.5)  # has estimated kernels
        fidelity = parse_fidelity("auto")
        production, oracle = on_both_planes(
            monkeypatch,
            lambda: GPUSystem(make_scheme(scheme_name, AMAP)).run(
                workload, fidelity=fidelity
            ).to_dict(),
        )
        assert production["metadata"]["sampled"]["estimated_kernels"] > 0
        assert production == oracle

    @pytest.mark.parametrize("scheme_name", ["BASE", "PAE"])
    def test_sampled_run_results_identical(self, scheme_name, monkeypatch):
        # SRAD2 @0.5 freezes with TBs still queued, so both freeze
        # populations (in-flight warps and queued TBs) replay.
        workload = make_workload("SRAD2", scale=0.5)
        fidelity = parse_fidelity("sampled")
        production, oracle = on_both_planes(
            monkeypatch,
            lambda: GPUSystem(make_scheme(scheme_name, AMAP)).run(
                workload, fidelity=fidelity
            ).to_dict(),
        )
        assert production["metadata"]["sampled"]["ff_requests"] > 0
        assert production == oracle

    def test_auto_run_with_cached_stream_identical(self, monkeypatch,
                                                   tmp_path):
        """Runs replaying a built and a cached stream equal a cold run
        on the oracle: the state cache never changes observable
        results."""
        from repro.runner.state_cache import StateCache

        workload = make_workload("SC", scale=0.5)
        fidelity = parse_fidelity("auto")
        plan = plan_auto(workload, fidelity, AMAP)
        base = {"workload": "SC", "scale": 0.5, "memory": "gddr5"}
        cache = StateCache(tmp_path / "state")

        def run(state_cache=None):
            return GPUSystem(make_scheme("BASE", AMAP)).run(
                workload, fidelity=fidelity, auto_plan=plan,
                state_cache=state_cache, state_key=base,
            ).to_dict()

        first = run(cache)
        assert cache.stats.stores > 0, "SC@0.5 must exercise the cache"
        warm = run(cache)
        assert cache.stats.hits == cache.stats.stores
        monkeypatch.setattr(replay, "replay_ops", replay_oracle.replay_ops)
        assert run() == first == warm


class TestStreamBuild:
    def test_stream_matches_context_order(self):
        """build_kernel_stream must reproduce the per-context interleave
        (one op per non-empty warp per turn, waves of wave_cap TBs), for
        a whole kernel and for a TB slice starting mid-kernel (the
        queued tail a freeze replays)."""
        kernel = make_workload("SC", scale=0.5).kernels[0]
        assert len(kernel.tbs) > 4
        for tbs in (list(kernel.tbs), list(kernel.tbs)[4:]):
            stream = build_kernel_stream(tbs, wave_cap=3)
            # Reference: explicit per-wave round-robin over warp streams.
            expected = []
            for start in range(0, len(tbs), 3):
                wave = tbs[start:start + 3]
                streams = []
                for tb_off, tb in enumerate(wave):
                    for warp in tb.warps:
                        ops = list(zip(warp.addresses, warp.writes))
                        if ops:
                            streams.append((start + tb_off, ops))
                depth = max((len(ops) for _, ops in streams), default=0)
                for position in range(depth):
                    for tb_ordinal, ops in streams:
                        if position < len(ops):
                            addr, is_write = ops[position]
                            expected.append((int(addr), bool(is_write),
                                             tb_ordinal))
            got = list(zip(
                (int(a) for a in stream.addresses),
                (bool(w) for w in stream.writes),
                (int(t) for t in stream.tb_ordinals),
            ))
            assert got == expected
            assert stream.n_tbs == len(tbs)
            assert stream.wave_cap == 3
