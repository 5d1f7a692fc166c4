"""Unit tests for GF(2) linear algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import gf2
from repro.core.gf2 import GF2Error


class TestValidation:
    def test_as_gf2_accepts_binary(self):
        arr = gf2.as_gf2([[1, 0], [0, 1]])
        assert arr.dtype == np.uint8

    def test_as_gf2_rejects_non_binary(self):
        with pytest.raises(GF2Error):
            gf2.as_gf2([[2, 0], [0, 1]])

    def test_identity_negative_dimension(self):
        with pytest.raises(GF2Error):
            gf2.identity(-1)


class TestMatmul:
    def test_identity_is_neutral(self):
        rng = np.random.default_rng(0)
        m = gf2.random_matrix(5, 5, rng)
        assert (gf2.gf2_matmul(gf2.identity(5), m) == m).all()
        assert (gf2.gf2_matmul(m, gf2.identity(5)) == m).all()

    def test_known_product(self):
        a = [[1, 1], [0, 1]]
        b = [[1, 0], [1, 1]]
        # over GF(2): [[1+1, 1], [1, 1]] = [[0,1],[1,1]]
        assert (gf2.gf2_matmul(a, b) == [[0, 1], [1, 1]]).all()

    def test_shape_mismatch(self):
        with pytest.raises(GF2Error):
            gf2.gf2_matmul(np.ones((2, 3), dtype=np.uint8), np.ones((2, 2), dtype=np.uint8))

    def test_matvec(self):
        m = [[1, 1], [0, 1]]
        assert (gf2.gf2_matvec(m, [1, 1]) == [0, 1]).all()

    def test_matvec_shape_mismatch(self):
        with pytest.raises(GF2Error):
            gf2.gf2_matvec([[1, 0]], [1, 0, 1])


class TestRank:
    def test_identity_full_rank(self):
        assert gf2.gf2_rank(gf2.identity(6)) == 6

    def test_zero_matrix(self):
        assert gf2.gf2_rank(np.zeros((4, 4), dtype=np.uint8)) == 0

    def test_duplicate_rows_reduce_rank(self):
        m = np.array([[1, 0, 1], [1, 0, 1], [0, 1, 0]], dtype=np.uint8)
        assert gf2.gf2_rank(m) == 2

    def test_empty(self):
        assert gf2.gf2_rank(np.zeros((0, 0), dtype=np.uint8)) == 0

    def test_rectangular(self):
        m = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8)
        assert gf2.gf2_rank(m) == 2


class TestInverse:
    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(1)
        m = gf2.random_invertible(8, rng)
        inv = gf2.gf2_inverse(m)
        assert (gf2.gf2_matmul(m, inv) == gf2.identity(8)).all()
        assert (gf2.gf2_matmul(inv, m) == gf2.identity(8)).all()

    def test_singular_raises(self):
        with pytest.raises(GF2Error):
            gf2.gf2_inverse(np.zeros((3, 3), dtype=np.uint8))

    def test_non_square_raises(self):
        with pytest.raises(GF2Error):
            gf2.gf2_inverse(np.ones((2, 3), dtype=np.uint8))

    def test_solve(self):
        rng = np.random.default_rng(2)
        m = gf2.random_invertible(6, rng)
        x = gf2.random_matrix(6, 1, rng)[:, 0]
        b = gf2.gf2_matvec(m, x)
        assert (gf2.gf2_matvec(gf2.gf2_inverse(m), b) == x).all()


class TestRandom:
    def test_random_invertible_is_invertible(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            assert gf2.is_invertible(gf2.random_invertible(10, rng))

    def test_random_invertible_zero_dim(self):
        rng = np.random.default_rng(0)
        assert gf2.random_invertible(0, rng).shape == (0, 0)

    def test_density_bounds(self):
        rng = np.random.default_rng(0)
        with pytest.raises(GF2Error):
            gf2.random_matrix(4, 4, rng, density=1.5)

    def test_density_extremes(self):
        rng = np.random.default_rng(0)
        assert gf2.random_matrix(4, 4, rng, density=0.0).sum() == 0
        assert gf2.random_matrix(4, 4, rng, density=1.0).sum() == 16

    def test_is_invertible_non_square(self):
        assert not gf2.is_invertible(np.ones((2, 3), dtype=np.uint8))


class TestPermutation:
    def test_permutation_matrix_selects(self):
        p = gf2.permutation_matrix([2, 0, 1])
        v = np.array([1, 0, 1], dtype=np.uint8)
        assert (gf2.gf2_matvec(p, v) == [1, 1, 0]).all()

    def test_invalid_permutation(self):
        with pytest.raises(GF2Error):
            gf2.permutation_matrix([0, 0, 1])

    def test_permutation_invertible(self):
        p = gf2.permutation_matrix([3, 1, 0, 2])
        assert gf2.is_invertible(p)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**32 - 1))
def test_inverse_is_involution_on_vectors(n, seed):
    """Property: M^-1 (M v) == v for random invertible M and random v."""
    rng = np.random.default_rng(seed)
    m = gf2.random_invertible(n, rng)
    v = gf2.random_matrix(n, 1, rng)[:, 0]
    assert (gf2.gf2_matvec(gf2.gf2_inverse(m), gf2.gf2_matvec(m, v)) == v).all()


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=2**32 - 1))
def test_rank_bounds(n, seed):
    """Property: 0 <= rank <= n, and row-duplication never raises it."""
    rng = np.random.default_rng(seed)
    m = gf2.random_matrix(n, n, rng)
    r = gf2.gf2_rank(m)
    assert 0 <= r <= n
    doubled = np.concatenate([m, m[:1]], axis=0)
    assert gf2.gf2_rank(doubled) == r


class TestMatvecBatch:
    def test_identity_passthrough(self):
        addrs = np.array([0, 1, 5, 1023], dtype=np.uint64)
        out = gf2.gf2_matvec_batch(gf2.identity(10), addrs)
        assert out.dtype == np.uint64
        assert (out == addrs).all()

    def test_matches_per_address_matvec(self):
        rng = np.random.default_rng(11)
        m = gf2.random_invertible(9, rng)
        addrs = rng.integers(0, 1 << 9, size=64, dtype=np.uint64)
        batch = gf2.gf2_matvec_batch(m, addrs)
        for addr, got in zip(addrs, batch):
            bits = np.array([(int(addr) >> j) & 1 for j in range(9)], dtype=np.uint8)
            expect = sum(int(v) << i for i, v in enumerate(gf2.gf2_matvec(m, bits)))
            assert int(got) == expect

    def test_rectangular_matrix(self):
        # 2x3: output bit 0 = in0 ^ in2, output bit 1 = in1.
        m = np.array([[1, 0, 1], [0, 1, 0]], dtype=np.uint8)
        out = gf2.gf2_matvec_batch(m, [0b101, 0b010, 0b111])
        assert out.tolist() == [0b00, 0b10, 0b10]

    def test_empty_input(self):
        out = gf2.gf2_matvec_batch(gf2.identity(4), np.array([], dtype=np.uint64))
        assert out.size == 0

    def test_rejects_oversized_address(self):
        with pytest.raises(GF2Error, match="does not fit"):
            gf2.gf2_matvec_batch(gf2.identity(4), [16])

    def test_rejects_wide_matrix(self):
        with pytest.raises(GF2Error, match="64-bit"):
            gf2.gf2_matvec_batch(np.zeros((65, 65), dtype=np.uint8), [0])

    def test_rejects_2d_addresses(self):
        with pytest.raises(GF2Error, match="one-dimensional"):
            gf2.gf2_matvec_batch(gf2.identity(4), [[1, 2], [3, 4]])


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=16), st.integers(min_value=0, max_value=2**32 - 1))
def test_matvec_batch_round_trip_property(n, seed):
    """Property: batch-applying M then M^-1 restores every address."""
    rng = np.random.default_rng(seed)
    m = gf2.random_invertible(n, rng)
    addrs = rng.integers(0, 1 << n, size=32, dtype=np.uint64)
    mapped = gf2.gf2_matvec_batch(m, addrs)
    back = gf2.gf2_matvec_batch(gf2.gf2_inverse(m), mapped)
    assert (back == addrs).all()
