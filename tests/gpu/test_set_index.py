"""Cache set-index hashing vs the reference chunked XOR fold.

``SetAssociativeCache.set_indices_array`` hashes aligned lines with a
doubling-shift XOR cascade plus mask, precomputed at construction,
when the set count is a power of two; non-power-of-two set counts keep
the exact legacy fold-then-modulo.  These property sweeps pin every
path to the original per-access fold loop, reproduced verbatim below.
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


def aligned(addresses, line_bytes):
    """The line address of each byte address, as a uint64 array."""
    mask = np.uint64(~(line_bytes - 1) & (1 << 64) - 1)
    return np.asarray(addresses, dtype=np.uint64) & mask


def assert_matches_reference(cache, lines):
    """``set_indices_array(lines)`` equals the scalar fold, line by line."""
    got = cache.set_indices_array(lines).tolist()
    expected = [reference_set_index(cache, line) for line in lines.tolist()]
    assert got == expected, f"set ids differ ({cache.sets} sets)"


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
        assert cache._fold_shifts is not None  # the doubling-shift cascade
        rng = random.Random(sets * 1000 + line_bytes)
        assert_matches_reference(
            cache, aligned(address_sweep(rng, line_bytes), line_bytes)
        )

    def test_unhashed_matches_reference(self):
        cache = SetAssociativeCache(64, 8, 128, hash_sets=False)
        rng = random.Random(7)
        assert_matches_reference(cache, aligned(address_sweep(rng, 128), 128))

    def test_index_always_in_range(self):
        rng = random.Random(99)
        for sets, ways, line_bytes in GEOMETRIES:
            cache = SetAssociativeCache(sets, ways, line_bytes)
            lines = aligned(
                [rng.randrange(1 << 34) for _ in range(200)], line_bytes
            )
            set_ids = cache.set_indices_array(lines)
            assert ((0 <= set_ids) & (set_ids < sets)).all()

    def test_fast_path_only_for_pow2(self):
        assert SetAssociativeCache(64, 8, 128)._fold_shifts is not None
        assert SetAssociativeCache(64, 8, 128, hash_sets=False)._fold_shifts is None


class TestWarmPaths:
    """The replay oracle's warm loops must match the event-driven cache
    paths (the production replay plane is pinned to the oracle in
    ``tests/sim/test_replay_equiv.py``)."""

    def test_warm_through_matches_l1_policy(self):
        """warm_through_many == try_read/miss count/fill + write_through."""
        rng = random.Random(3)
        lines = [rng.randrange(64) * 128 for _ in range(400)]
        writes = [rng.random() < 0.3 for _ in range(400)]

        bulk = SetAssociativeCache(8, 2, 128)
        set_ids = bulk.set_indices_array(aligned(lines, 128)).tolist()
        forwarded = warm_through_many(bulk, lines, writes, set_ids)

        step = SetAssociativeCache(8, 2, 128)
        expected_forward = []
        for position, (line, is_write, set_id) in enumerate(
            zip(lines, writes, set_ids)
        ):
            if is_write:
                step.write_through(line, set_id)
                expected_forward.append(position)
            elif step.try_read(line, set_id):
                pass
            else:
                step.stats.read_misses += 1
                step.fill(line, False, set_id)  # allocate-on-fill, timeless
                expected_forward.append(position)
        assert forwarded == expected_forward
        assert bulk.stats == step.stats
        assert [set(t) for t in bulk.line_tables] == \
            [set(t) for t in step.line_tables]

    def test_warm_back_matches_llc_policy(self):
        """warm_back_many == on_read/on_write tag behaviour, timeless."""
        rng = random.Random(5)
        lines = [rng.randrange(48) * 128 for _ in range(400)]
        writes = [rng.random() < 0.4 for _ in range(400)]

        bulk = SetAssociativeCache(4, 2, 128)
        set_ids = bulk.set_indices_array(aligned(lines, 128)).tolist()
        miss_positions, writebacks = warm_back_many(bulk, lines, writes, set_ids)

        step = SetAssociativeCache(4, 2, 128)
        expected_misses, expected_writebacks = [], []
        for position, (line, is_write, set_id) in enumerate(
            zip(lines, writes, set_ids)
        ):
            if is_write:
                if step.probe(line, set_id):
                    step.access(line, True, set_id)
                else:
                    step.stats.write_misses += 1
                    victim = step.fill(line, True, set_id)
                    if victim is not None:
                        expected_writebacks.append(victim)
            elif step.try_read(line, set_id):
                pass
            else:
                step.stats.read_misses += 1
                expected_misses.append(position)
                victim = step.fill(line, False, set_id)
                if victim is not None:
                    expected_writebacks.append(victim)
        assert miss_positions == expected_misses
        assert writebacks == expected_writebacks
        assert bulk.stats == step.stats
        assert [set(t) for t in bulk.line_tables] == \
            [set(t) for t in step.line_tables]


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
    methods; the ids must equal the scalar reference fold."""

    @pytest.mark.parametrize("hash_sets", [True, False])
    @pytest.mark.parametrize(
        "sets,ways,line_bytes", GEOMETRIES + NON_POW2_GEOMETRIES
    )
    def test_vectorized_matches_scalar(self, sets, ways, line_bytes, hash_sets):
        """Every geometry, hashed or not; a line's id does not depend on
        the other lines hashed with it (the generic fold loops until
        the widest index of the batch is folded)."""
        cache = SetAssociativeCache(sets, ways, line_bytes, hash_sets=hash_sets)
        rng = random.Random(sets * 7 + line_bytes)
        lines = aligned(address_sweep(rng, line_bytes), line_bytes)
        assert_matches_reference(cache, lines)
        batch = cache.set_indices_array(lines)
        narrow = lines < np.uint64(1 << 32)
        assert (cache.set_indices_array(lines[narrow]) == batch[narrow]).all()

    @pytest.mark.parametrize("sets,ways,line_bytes", NON_POW2_GEOMETRIES)
    def test_non_pow2_scalar_matches_reference(self, sets, ways, line_bytes):
        cache = SetAssociativeCache(sets, ways, line_bytes)
        assert cache._fold_shifts is None  # the generic chunked fold
        rng = random.Random(sets)
        assert_matches_reference(
            cache, aligned(address_sweep(rng, line_bytes), line_bytes)
        )

    @pytest.mark.parametrize("l1_bytes", [16 * 1024, 24 * 1024])
    def test_prepared_kernel_set_ids(self, l1_bytes):
        """The per-op set ids a prepared kernel carries equal the scalar
        fold of each op's line, for the L1 and the LLC geometry."""
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
                assert warp.l1_sets[ops] == [
                    reference_set_index(l1, x) for x in lines
                ]
                assert warp.llc_sets[ops] == [
                    reference_set_index(llc, x) for x in lines
                ]
                checked += warp.end - warp.op
        assert checked == sum(tb.n_requests for tb in kernel.tbs)
