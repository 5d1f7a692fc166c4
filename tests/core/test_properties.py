"""Property-based tests: seeded generative loops over GF(2) invariants.

No hypothesis dependency — plain seeded ``numpy.random`` generators
drive randomized inputs through the invariants the whole reproduction
rests on:

* scheme matrices stay invertible under the :mod:`repro.core.gf2`
  operations (products, inverses, permutation embeddings),
* mapping is a bijection: ``unmap . map`` is the identity and
  ``decode_fields`` of ``scheme.map``'s output round-trips through
  ``AddressMap.encode``,
* window entropy stays within its normalized [0, 1] bounds under any
  mapping, and pure bit permutations (RMP) *permute* the per-bit
  entropy profile rather than changing its values.
"""

import numpy as np
import pytest

from repro.core import gf2
from repro.core.address_map import hynix_gddr5_map, stacked_memory_map, toy_map
from repro.core.bim import BinaryInvertibleMatrix
from repro.core.entropy import (
    bit_value_ratios,
    kernel_entropy_profile,
    stream_entropy,
    window_entropy,
)
from repro.core.mapper import decode_fields
from repro.core.schemes import SCHEME_NAMES
from repro.registry import make_scheme

N_TRIALS = 12
AMAP = hynix_gddr5_map()


def random_addresses(rng, n, width):
    return rng.integers(0, 1 << width, size=n, dtype=np.uint64)


class TestGF2Invariants:
    @pytest.mark.parametrize("seed", range(N_TRIALS))
    def test_random_invertible_is_invertible(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 24))
        matrix = gf2.random_invertible(n, rng)
        assert gf2.is_invertible(matrix)
        assert gf2.gf2_rank(matrix) == n

    @pytest.mark.parametrize("seed", range(N_TRIALS))
    def test_inverse_round_trip(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 24))
        matrix = gf2.random_invertible(n, rng)
        inverse = gf2.gf2_inverse(matrix)
        assert np.array_equal(gf2.gf2_matmul(matrix, inverse), gf2.identity(n))
        assert np.array_equal(gf2.gf2_matmul(inverse, matrix), gf2.identity(n))

    @pytest.mark.parametrize("seed", range(N_TRIALS))
    def test_product_of_invertibles_invertible(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(2, 20))
        a = gf2.random_invertible(n, rng)
        b = gf2.random_invertible(n, rng)
        product = gf2.gf2_matmul(a, b)
        assert gf2.is_invertible(product)
        # (ab)^-1 == b^-1 a^-1
        assert np.array_equal(
            gf2.gf2_inverse(product),
            gf2.gf2_matmul(gf2.gf2_inverse(b), gf2.gf2_inverse(a)),
        )

    @pytest.mark.parametrize("seed", range(N_TRIALS))
    def test_permutation_matrices_are_invertible(self, seed):
        rng = np.random.default_rng(300 + seed)
        perm = rng.permutation(int(rng.integers(2, 30)))
        p = gf2.permutation_matrix(perm)
        assert gf2.is_invertible(p)
        # A permutation's inverse is its transpose.
        assert np.array_equal(gf2.gf2_inverse(p), p.T)

    @pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
    @pytest.mark.parametrize("seed", range(4))
    def test_scheme_matrices_invertible_for_any_seed(self, scheme_name, seed):
        scheme = make_scheme(scheme_name, AMAP, seed=seed)
        matrix = scheme.bim.matrix
        assert gf2.is_invertible(matrix)
        # Rebuilding the BIM from the raw matrix re-validates it.
        BinaryInvertibleMatrix(matrix)

    @pytest.mark.parametrize("seed", range(4))
    def test_scheme_invertibility_on_stacked_map(self, seed):
        smap = stacked_memory_map()
        for scheme_name in SCHEME_NAMES:
            scheme = make_scheme(scheme_name, smap, seed=seed)
            assert gf2.is_invertible(scheme.bim.matrix)


class TestMappingRoundTrips:
    @pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
    @pytest.mark.parametrize("seed", range(3))
    def test_unmap_inverts_map(self, scheme_name, seed):
        rng = np.random.default_rng(1000 + seed)
        scheme = make_scheme(scheme_name, AMAP, seed=seed)
        addresses = random_addresses(rng, 512, AMAP.width)
        mapped = scheme.map(addresses)
        assert np.array_equal(scheme.unmap(mapped), addresses)

    @pytest.mark.parametrize("seed", range(3))
    def test_map_is_a_bijection_on_samples(self, seed):
        """Distinct inputs stay distinct (no collisions ever)."""
        rng = np.random.default_rng(2000 + seed)
        scheme = make_scheme("FAE", AMAP, seed=seed)
        addresses = np.unique(random_addresses(rng, 2048, AMAP.width))
        mapped = np.asarray(scheme.map(addresses))
        assert len(np.unique(mapped)) == len(addresses)

    @pytest.mark.parametrize("amap", [hynix_gddr5_map(), stacked_memory_map(), toy_map()],
                             ids=["gddr5", "stacked", "toy"])
    @pytest.mark.parametrize("seed", range(3))
    def test_apply_decode_encode_round_trip(self, amap, seed):
        """Decoded fields re-encode to exactly the mapped address."""
        rng = np.random.default_rng(3000 + seed)
        scheme = make_scheme("PAE", amap, seed=seed)
        addresses = random_addresses(rng, 64, amap.width)
        mapped = np.atleast_1d(scheme.map(addresses))
        fields = decode_fields(amap, mapped)
        for i in range(len(addresses)):
            coords = {name: int(values[i]) for name, values in fields.items()}
            assert amap.encode(**coords) == int(mapped[i])

    @pytest.mark.parametrize("seed", range(3))
    def test_scalar_decode_agrees_with_vectorized(self, seed):
        rng = np.random.default_rng(4000 + seed)
        scheme = make_scheme("ALL", AMAP, seed=seed)
        addresses = random_addresses(rng, 32, AMAP.width)
        fields = decode_fields(AMAP, np.atleast_1d(scheme.map(addresses)))
        for i, address in enumerate(addresses):
            scalar = AMAP.decode(int(np.asarray(scheme.map(int(address)))))
            for name, value in scalar.items():
                assert int(fields[name][i]) == value


class TestEntropyBounds:
    def _random_tb_addresses(self, rng, n_tbs):
        return [
            random_addresses(rng, int(rng.integers(8, 64)), AMAP.width)
            for _ in range(n_tbs)
        ]

    @pytest.mark.parametrize("seed", range(N_TRIALS))
    def test_window_entropy_within_unit_interval(self, seed):
        rng = np.random.default_rng(5000 + seed)
        tbs = self._random_tb_addresses(rng, int(rng.integers(4, 32)))
        bvrs = np.stack([bit_value_ratios(a, AMAP.width) for a in tbs])
        values = window_entropy(bvrs, window=int(rng.integers(2, 12)))
        assert (values >= 0.0).all() and (values <= 1.0).all()

    @pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
    def test_mapped_streams_keep_entropy_bounds(self, scheme_name):
        """Any bijective remap keeps every window entropy in [0, 1]."""
        rng = np.random.default_rng(6000)
        scheme = make_scheme(scheme_name, AMAP, seed=1)
        tbs = self._random_tb_addresses(rng, 16)
        mapped = [np.atleast_1d(scheme.map(a)) for a in tbs]
        profile = kernel_entropy_profile(mapped, AMAP, window=8)
        assert (profile.values >= 0.0).all() and (profile.values <= 1.0).all()

    @pytest.mark.parametrize("seed", range(3))
    def test_permutation_scheme_permutes_the_profile(self, seed):
        """RMP is a pure bit permutation: the multiset of per-bit
        entropies is preserved exactly — the paper's 'remap' strategy
        moves entropy, broad strategies create it."""
        rng = np.random.default_rng(7000 + seed)
        scheme = make_scheme("RMP", AMAP)
        tbs = self._random_tb_addresses(rng, 16)
        base = kernel_entropy_profile(tbs, AMAP, window=8)
        mapped = [np.atleast_1d(scheme.map(a)) for a in tbs]
        remapped = kernel_entropy_profile(mapped, AMAP, window=8)
        assert np.allclose(
            np.sort(base.values), np.sort(remapped.values), atol=1e-12
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_stream_entropy_bounded_by_one_bit(self, seed):
        rng = np.random.default_rng(8000 + seed)
        scheme = make_scheme("FAE", AMAP, seed=seed)
        addresses = random_addresses(rng, 4096, AMAP.width)
        mapped = np.atleast_1d(scheme.map(addresses))
        for stream in (addresses, mapped):
            h = stream_entropy(stream, AMAP.width)
            assert (h >= 0.0).all() and (h <= 1.0).all()
