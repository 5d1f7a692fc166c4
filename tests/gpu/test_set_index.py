"""Cache set-index fast path vs the reference chunked XOR fold.

``SetAssociativeCache._set_index`` precomputes a doubling-shift XOR
cascade plus mask at construction when the set count is a power of
two; non-power-of-two set counts keep the exact legacy fold-then-
modulo.  These property sweeps pin both paths to the original
per-access fold loop, reproduced verbatim below.
"""

import random

import numpy as np
import pytest

from replay_oracle import warm_back_many, warm_through_many
from repro.core import hynix_gddr5_map
from repro.gpu.cache import SetAssociativeCache
from repro.gpu.config import GPUConfig
from repro.registry import make_scheme
from repro.sim.gpu_system import GPUSystem
from repro.workloads.suite import mt


def reference_set_index(cache: SetAssociativeCache, line_address: int) -> int:
    """The pre-optimization implementation (verbatim)."""
    index = line_address >> cache._line_shift
    if cache._hash_sets:
        folded = index
        index = 0
        while folded:
            index ^= folded
            folded >>= cache._set_bits
    return index % cache._sets


GEOMETRIES = [
    # (sets, ways, line_bytes) — the shipped L1/LLC shapes plus edges.
    (32, 4, 128),     # L1
    (64, 8, 128),     # LLC slice
    (1, 1, 64),       # degenerate single set
    (2, 2, 32),       # 1-bit set index
    (256, 4, 128),    # larger pow2
    (1024, 16, 64),
]


def address_sweep(rng, line_bytes):
    """Structured + random addresses over the realistic space."""
    addresses = []
    # Power-of-two strides (the reason set hashing exists).
    for stride_bits in range(7, 24):
        for k in range(16):
            addresses.append((k << stride_bits) & 0xFFFFFFFF)
    # Dense low range, high range, random 32-bit and a few 64-bit.
    addresses.extend(range(0, 64 * line_bytes, line_bytes))
    addresses.extend(rng.randrange(1 << 30) for _ in range(500))
    addresses.extend(rng.randrange(1 << 32) for _ in range(500))
    addresses.extend(rng.randrange(1 << 62) for _ in range(100))
    return addresses


class TestSetIndexEquivalence:
    @pytest.mark.parametrize("sets,ways,line_bytes", GEOMETRIES)
    def test_hashed_pow2_matches_reference(self, sets, ways, line_bytes):
        cache = SetAssociativeCache(sets, ways, line_bytes)
        rng = random.Random(sets * 1000 + line_bytes)
        for address in address_sweep(rng, line_bytes):
            line = cache.line_address(address)
            assert cache._set_index(line) == reference_set_index(cache, line), (
                f"mismatch at 0x{line:x} ({sets} sets)"
            )

    def test_unhashed_matches_reference(self):
        cache = SetAssociativeCache(64, 8, 128, hash_sets=False)
        rng = random.Random(7)
        for address in address_sweep(rng, 128):
            line = cache.line_address(address)
            assert cache._set_index(line) == reference_set_index(cache, line)

    def test_index_always_in_range(self):
        rng = random.Random(99)
        for sets, ways, line_bytes in GEOMETRIES:
            cache = SetAssociativeCache(sets, ways, line_bytes)
            for _ in range(200):
                line = cache.line_address(rng.randrange(1 << 34))
                assert 0 <= cache._set_index(line) < sets

    def test_fast_path_only_for_pow2(self):
        assert SetAssociativeCache(64, 8, 128)._fold_shifts is not None
        assert SetAssociativeCache(64, 8, 128, hash_sets=False)._fold_shifts is None


class TestWarmPaths:
    """The replay oracle's warm loops must match the event-driven cache
    paths (the production replay plane is pinned to the oracle in
    ``tests/sim/test_replay_equiv.py``)."""

    def test_warm_through_matches_l1_policy(self):
        """warm_through_many == try_read/count_miss/fill + write_through."""
        rng = random.Random(3)
        lines = [rng.randrange(64) * 128 for _ in range(400)]
        writes = [rng.random() < 0.3 for _ in range(400)]

        bulk = SetAssociativeCache(8, 2, 128)
        forwarded = warm_through_many(bulk, lines, writes)

        step = SetAssociativeCache(8, 2, 128)
        expected_forward = []
        for position, (line, is_write) in enumerate(zip(lines, writes)):
            if is_write:
                step.write_through(line)
                expected_forward.append(position)
            elif step.try_read(line):
                pass
            else:
                step.stats.count_miss(is_write=False)
                step.fill(line)  # allocate-on-fill, collapsed in time
                expected_forward.append(position)
        assert forwarded == expected_forward
        assert bulk.stats == step.stats
        assert bulk.resident_lines() == step.resident_lines()

    def test_warm_back_matches_llc_policy(self):
        """warm_back_many == on_read/on_write tag behaviour, timeless."""
        rng = random.Random(5)
        lines = [rng.randrange(48) * 128 for _ in range(400)]
        writes = [rng.random() < 0.4 for _ in range(400)]

        bulk = SetAssociativeCache(4, 2, 128)
        miss_positions, writebacks = warm_back_many(bulk, lines, writes)

        step = SetAssociativeCache(4, 2, 128)
        expected_misses, expected_writebacks = [], []
        for position, (line, is_write) in enumerate(zip(lines, writes)):
            if is_write:
                if step.probe(line):
                    step.access(line, is_write=True)
                else:
                    step.stats.count_miss(is_write=True)
                    victim = step.fill(line, dirty=True)
                    if victim is not None:
                        expected_writebacks.append(victim)
            elif step.try_read(line):
                pass
            else:
                step.stats.count_miss(is_write=False)
                expected_misses.append(position)
                victim = step.fill(line)
                if victim is not None:
                    expected_writebacks.append(victim)
        assert miss_positions == expected_misses
        assert writebacks == expected_writebacks
        assert bulk.stats == step.stats
        assert bulk.resident_lines() == step.resident_lines()


# Non-power-of-two set counts take the legacy fold-then-modulo path in
# both the scalar and the vectorized hash.
NON_POW2_GEOMETRIES = [
    (48, 4, 128),     # 24 KB L1 with 4 ways
    (12, 8, 64),
    (3, 2, 32),
    (100, 4, 128),
]


class TestPrecomputedSetIds:
    """The detailed engine hashes every op's line once per kernel with
    ``set_indices_array`` and hands the set id to the per-access
    methods; both must agree with the scalar ``_set_index``."""

    @pytest.mark.parametrize("hash_sets", [True, False])
    @pytest.mark.parametrize(
        "sets,ways,line_bytes", GEOMETRIES + NON_POW2_GEOMETRIES
    )
    def test_vectorized_matches_scalar(self, sets, ways, line_bytes, hash_sets):
        cache = SetAssociativeCache(sets, ways, line_bytes, hash_sets=hash_sets)
        rng = random.Random(sets * 7 + line_bytes)
        lines = [cache.line_address(a) for a in address_sweep(rng, line_bytes)]
        precomputed = cache.set_indices_array(np.asarray(lines, dtype=np.uint64))
        assert precomputed.tolist() == [cache._set_index(line) for line in lines]

    @pytest.mark.parametrize("sets,ways,line_bytes", NON_POW2_GEOMETRIES)
    def test_non_pow2_scalar_matches_reference(self, sets, ways, line_bytes):
        cache = SetAssociativeCache(sets, ways, line_bytes)
        assert cache._fold_shifts is None
        rng = random.Random(sets)
        for address in address_sweep(rng, line_bytes):
            line = cache.line_address(address)
            assert cache._set_index(line) == reference_set_index(cache, line)

    @pytest.mark.parametrize(
        "sets,ways,line_bytes", [(8, 2, 128), (6, 2, 128)]
    )
    def test_set_id_path_matches_hashing_path(self, sets, ways, line_bytes):
        """Every per-access method leaves the same state and returns the
        same values whether it hashes the line or is handed the id."""
        rng = random.Random(sets)
        lines = [rng.randrange(64) * line_bytes for _ in range(600)]
        kinds = [rng.randrange(5) for _ in range(600)]
        hashed = SetAssociativeCache(sets, ways, line_bytes)
        given = SetAssociativeCache(sets, ways, line_bytes)
        set_ids = given.set_indices_array(np.asarray(lines, dtype=np.uint64))
        for line, kind, set_id in zip(lines, kinds, set_ids.tolist()):
            if kind == 0:
                expected, got = hashed.try_read(line), given.try_read(line, set_id)
            elif kind == 1:
                expected = hashed.fill(line, dirty=True)
                got = given.fill(line, True, set_id)
            elif kind == 2:
                expected = hashed.write_through(line)
                got = given.write_through(line, set_id)
            elif kind == 3:
                expected = hashed.access(line, is_write=True)
                got = given.access(line, True, set_id)
            else:
                expected, got = hashed.probe(line), given.probe(line, set_id)
            assert got == expected
        assert given.stats == hashed.stats
        assert given.line_tables == hashed.line_tables

    @pytest.mark.parametrize("l1_bytes", [16 * 1024, 24 * 1024])
    def test_prepared_kernel_set_ids(self, l1_bytes):
        """The per-op set ids a prepared kernel carries equal the scalar
        hash of each op's line, for the L1 and the LLC geometry."""
        config = GPUConfig(l1_bytes=l1_bytes)
        system = GPUSystem(make_scheme("PAE", hynix_gddr5_map()), config=config)
        l1 = system.sms[0].l1
        llc = system.slices[0].cache
        kernel = mt(scale=0.1).kernels[0]
        checked = 0
        for tb in system._kernel_contexts(kernel, 0):
            for warp in tb.warps:
                ops = slice(warp.op, warp.end)
                lines = warp.lines[ops]
                assert warp.l1_sets[ops] == [l1._set_index(x) for x in lines]
                assert warp.llc_sets[ops] == [llc._set_index(x) for x in lines]
                checked += warp.end - warp.op
        assert checked == sum(len(w) for tb in kernel.tbs for w in tb.warps)
