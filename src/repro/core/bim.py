"""The Binary Invertible Matrix (BIM) abstraction.

The paper observes that every address mapping built from AND and XOR
operations can be written as ``a_out = M . a_in`` over GF(2) where
``M`` is a *binary invertible matrix*.  Invertibility guarantees the
mapping is a bijection on the address space, i.e. no two input
addresses collide.

Bit convention
--------------
Addresses are plain Python/numpy integers.  Bit *i* of the address is
component *i* of the GF(2) vector, so **row i of the matrix produces
output bit i** and **column j consumes input bit j**.  This matches
the paper's Figure 6 up to the (irrelevant) ordering of the printed
rows.

Applying a BIM to millions of addresses must be cheap, so
:class:`BinaryInvertibleMatrix` precompiles each row into an integer
bit-mask and evaluates ``popcount(addr & mask) & 1`` per output bit,
fully vectorized over numpy arrays.  Rows that merely copy their own
input bit are folded into a single identity mask.
"""

from __future__ import annotations

from typing import Iterable, Union

import numpy as np

from . import gf2
from .gf2 import GF2Error

__all__ = ["BinaryInvertibleMatrix", "BIM"]

AddressLike = Union[int, np.ndarray, Iterable[int]]


def _parity_u64(values: np.ndarray) -> np.ndarray:
    """Bitwise parity of each uint64 element (1 if an odd number of set bits)."""
    v = values.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        v ^= v >> np.uint64(shift)
    return v & np.uint64(1)


class BinaryInvertibleMatrix:
    """An n-bit address mapping ``a_out = M . a_in`` over GF(2).

    Parameters
    ----------
    matrix:
        A square 0/1 matrix.  Must be invertible over GF(2); a
        :class:`~repro.core.gf2.GF2Error` is raised otherwise, so an
        invalid mapping can never be constructed.

    Examples
    --------
    >>> import numpy as np
    >>> bim = BinaryInvertibleMatrix(np.eye(4))
    >>> bim.apply(0b1010)
    10
    """

    def __init__(self, matrix) -> None:
        m = gf2.as_gf2(matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise GF2Error(f"BIM must be square, got shape {m.shape}")
        if not gf2.is_invertible(m):
            raise GF2Error("matrix is not invertible over GF(2): mapping would collide")
        self._matrix = m
        self._matrix.setflags(write=False)
        self._width = m.shape[0]
        if self._width > 63:
            raise GF2Error(f"address widths above 63 bits are unsupported, got {self._width}")
        self._compile()

    def _compile(self) -> None:
        """Precompute per-row input masks and fold identity rows together."""
        bit_weights = np.uint64(1) << np.arange(self._width, dtype=np.uint64)
        row_masks = (self._matrix.astype(np.uint64) * bit_weights[np.newaxis, :]).sum(axis=1)
        identity_rows = row_masks == bit_weights
        self._identity_mask = np.uint64(np.bitwise_or.reduce(bit_weights[identity_rows], initial=np.uint64(0)))
        self._xor_rows = [
            (np.uint64(1) << np.uint64(i), np.uint64(row_masks[i]))
            for i in range(self._width)
            if not identity_rows[i]
        ]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def width(self) -> int:
        """Address width in bits."""
        return self._width

    @property
    def matrix(self) -> np.ndarray:
        """The underlying (read-only) GF(2) matrix."""
        return self._matrix

    def is_identity(self) -> bool:
        """True if this BIM is the identity mapping."""
        return bool((self._matrix == gf2.identity(self._width)).all())

    def is_permutation(self) -> bool:
        """True if the BIM only rearranges bits (Remap strategy)."""
        return bool((self._matrix.sum(axis=0) == 1).all() and (self._matrix.sum(axis=1) == 1).all())

    def xor_gate_count(self) -> int:
        """Two-input XOR gates needed by a direct tree implementation (Fig. 7)."""
        fanins = self._matrix.sum(axis=1).astype(int)
        return int(np.maximum(fanins - 1, 0).sum())

    def xor_tree_depth(self) -> int:
        """Logic depth in two-input XOR gate levels of the widest row."""
        max_fanin = int(self._matrix.sum(axis=1).max())
        return max(0, int(np.ceil(np.log2(max_fanin)))) if max_fanin > 1 else 0

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def inverse(self) -> "BinaryInvertibleMatrix":
        """The inverse mapping (always exists by construction)."""
        return BinaryInvertibleMatrix(gf2.gf2_inverse(self._matrix))

    def compose(self, other: "BinaryInvertibleMatrix") -> "BinaryInvertibleMatrix":
        """The mapping equivalent to applying *other* first, then *self*."""
        if other.width != self._width:
            raise GF2Error(f"cannot compose widths {self._width} and {other.width}")
        return BinaryInvertibleMatrix(gf2.gf2_matmul(self._matrix, other.matrix))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BinaryInvertibleMatrix):
            return NotImplemented
        return self._width == other.width and bool((self._matrix == other.matrix).all())

    def __hash__(self) -> int:
        return hash((self._width, self._matrix.tobytes()))

    def __repr__(self) -> str:
        kind = "identity" if self.is_identity() else ("permutation" if self.is_permutation() else "general")
        return f"BinaryInvertibleMatrix(width={self._width}, kind={kind})"

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------
    def apply(self, addresses: AddressLike):
        """Map one address or an array of addresses.

        Returns an ``int`` for scalar input, else a ``numpy`` uint64
        array of the same length.  Raises :class:`GF2Error` for
        addresses that do not fit in :attr:`width` bits.
        """
        scalar = np.isscalar(addresses) or isinstance(addresses, (int, np.integer))
        addr = np.atleast_1d(np.asarray(addresses, dtype=np.uint64))
        limit = np.uint64(1) << np.uint64(self._width)
        if addr.size and int(addr.max()) >= int(limit):
            raise GF2Error(
                f"address 0x{int(addr.max()):x} does not fit in {self._width} bits"
            )
        out = addr & self._identity_mask
        for out_bit, mask in self._xor_rows:
            out |= _parity_u64(addr & mask) * out_bit
        if scalar:
            return int(out[0])
        return out

    def apply_inverse(self, addresses: AddressLike):
        """Map addresses through the inverse matrix (undo :meth:`apply`)."""
        return self.inverse().apply(addresses)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def identity(cls, width: int) -> "BinaryInvertibleMatrix":
        """The identity mapping on *width*-bit addresses."""
        return cls(gf2.identity(width))

    @classmethod
    def from_permutation(cls, permutation) -> "BinaryInvertibleMatrix":
        """Mapping where output bit i takes input bit ``permutation[i]``."""
        return cls(gf2.permutation_matrix(permutation))

    @classmethod
    def random(cls, width: int, rng: np.random.Generator) -> "BinaryInvertibleMatrix":
        """A uniformly random invertible mapping (mostly useful for tests)."""
        return cls(gf2.random_invertible(width, rng))


BIM = BinaryInvertibleMatrix
