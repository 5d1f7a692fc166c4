"""Unit tests for the BinaryInvertibleMatrix abstraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BIM, BinaryInvertibleMatrix
from repro.core.gf2 import GF2Error
from repro.core import gf2


class TestConstruction:
    def test_identity(self):
        bim = BinaryInvertibleMatrix.identity(8)
        assert bim.is_identity()
        assert bim.width == 8

    def test_singular_rejected(self):
        with pytest.raises(GF2Error):
            BinaryInvertibleMatrix(np.zeros((4, 4), dtype=np.uint8))

    def test_non_square_rejected(self):
        with pytest.raises(GF2Error):
            BinaryInvertibleMatrix(np.ones((3, 4), dtype=np.uint8))

    def test_too_wide_rejected(self):
        with pytest.raises(GF2Error):
            BinaryInvertibleMatrix(gf2.identity(64))

    def test_matrix_is_read_only(self):
        bim = BinaryInvertibleMatrix.identity(4)
        with pytest.raises(ValueError):
            bim.matrix[0, 0] = 0

    def test_alias(self):
        assert BIM is BinaryInvertibleMatrix


class TestApply:
    def test_identity_passthrough(self):
        bim = BinaryInvertibleMatrix.identity(16)
        assert bim.apply(0xABCD) == 0xABCD

    def test_scalar_returns_int(self):
        bim = BinaryInvertibleMatrix.identity(8)
        assert isinstance(bim.apply(5), int)

    def test_array_returns_array(self):
        bim = BinaryInvertibleMatrix.identity(8)
        out = bim.apply(np.array([1, 2, 3], dtype=np.uint64))
        assert isinstance(out, np.ndarray)
        assert (out == [1, 2, 3]).all()

    def test_out_of_range_address(self):
        bim = BinaryInvertibleMatrix.identity(4)
        with pytest.raises(GF2Error):
            bim.apply(16)

    def test_known_xor_mapping(self):
        # Output bit 0 = in0 ^ in1; other bits pass through.
        m = gf2.identity(3)
        m[0, 1] = 1
        bim = BinaryInvertibleMatrix(m)
        assert bim.apply(0b010) == 0b011
        assert bim.apply(0b011) == 0b010
        assert bim.apply(0b100) == 0b100

    def test_permutation_mapping(self):
        # Output bit i takes input bit perm[i].
        bim = BinaryInvertibleMatrix.from_permutation([1, 0, 2])
        assert bim.apply(0b001) == 0b010
        assert bim.apply(0b010) == 0b001
        assert bim.is_permutation()

    def test_bijection_exhaustive_small(self):
        rng = np.random.default_rng(7)
        bim = BinaryInvertibleMatrix.random(6, rng)
        outputs = bim.apply(np.arange(64, dtype=np.uint64))
        assert len(set(int(o) for o in outputs)) == 64

    def test_apply_inverse_roundtrip(self):
        rng = np.random.default_rng(8)
        bim = BinaryInvertibleMatrix.random(12, rng)
        addrs = np.arange(0, 4096, 7, dtype=np.uint64)
        assert (bim.apply_inverse(bim.apply(addrs)) == addrs).all()


class TestAlgebra:
    def test_compose_matches_sequential_apply(self):
        rng = np.random.default_rng(9)
        a = BinaryInvertibleMatrix.random(10, rng)
        b = BinaryInvertibleMatrix.random(10, rng)
        addrs = np.arange(1000, dtype=np.uint64)
        composed = a.compose(b)
        assert (composed.apply(addrs) == a.apply(b.apply(addrs))).all()

    def test_compose_width_mismatch(self):
        a = BinaryInvertibleMatrix.identity(4)
        b = BinaryInvertibleMatrix.identity(5)
        with pytest.raises(GF2Error):
            a.compose(b)

    def test_inverse_composes_to_identity(self):
        rng = np.random.default_rng(10)
        bim = BinaryInvertibleMatrix.random(8, rng)
        assert bim.compose(bim.inverse()).is_identity()

    def test_equality_and_hash(self):
        a = BinaryInvertibleMatrix.identity(5)
        b = BinaryInvertibleMatrix.identity(5)
        assert a == b
        assert hash(a) == hash(b)
        assert a != BinaryInvertibleMatrix.from_permutation([1, 0, 2, 3, 4])


class TestHardwareCost:
    def test_identity_costs_nothing(self):
        bim = BinaryInvertibleMatrix.identity(8)
        assert bim.xor_gate_count() == 0
        assert bim.xor_tree_depth() == 0

    def test_two_input_row(self):
        m = gf2.identity(4)
        m[0, 1] = 1  # fan-in 2
        bim = BinaryInvertibleMatrix(m)
        assert bim.xor_gate_count() == 1
        assert bim.xor_tree_depth() == 1

    def test_wide_row_depth(self):
        m = gf2.identity(8)
        m[0, 1:5] = 1  # fan-in 5 -> ceil(log2(5)) = 3 levels
        bim = BinaryInvertibleMatrix(m)
        assert bim.xor_gate_count() == 4
        assert bim.xor_tree_depth() == 3


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=20),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_random_bim_is_bijective_on_samples(width, seed):
    """Property: a random BIM never collides on random address samples."""
    rng = np.random.default_rng(seed)
    bim = BinaryInvertibleMatrix.random(width, rng)
    addrs = rng.integers(0, 1 << width, size=200, dtype=np.uint64)
    unique_in = np.unique(addrs)
    unique_out = np.unique(bim.apply(unique_in))
    assert unique_out.size == unique_in.size
    assert (np.sort(bim.apply_inverse(bim.apply(unique_in))) == unique_in).all()
