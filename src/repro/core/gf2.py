"""Linear algebra over GF(2).

This module provides the small set of GF(2) (binary field) matrix
operations that the Binary Invertible Matrix (BIM) abstraction of the
paper rests on: matrix-vector and matrix-matrix products, rank,
inversion, and the generation of random invertible matrices.

Matrices are dense ``numpy`` arrays of dtype ``uint8`` containing only
0s and 1s.  Addition is XOR and multiplication is AND, so a product is
an ordinary integer product reduced modulo 2.

All functions treat their inputs as immutable and return new arrays.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "GF2Error",
    "as_gf2",
    "identity",
    "gf2_matmul",
    "gf2_matvec",
    "gf2_matvec_batch",
    "gf2_rank",
    "gf2_inverse",
    "is_invertible",
    "random_invertible",
    "random_matrix",
    "permutation_matrix",
]


class GF2Error(ValueError):
    """Raised for invalid GF(2) inputs (non-binary entries, singular matrices)."""


def as_gf2(matrix) -> np.ndarray:
    """Validate and coerce *matrix* into a GF(2) ``uint8`` array.

    Accepts anything ``np.asarray`` accepts.  Raises :class:`GF2Error`
    if any entry is not 0 or 1.
    """
    arr = np.asarray(matrix)
    if arr.size and not np.isin(arr, (0, 1)).all():
        raise GF2Error("GF(2) arrays may only contain 0s and 1s")
    return arr.astype(np.uint8)


def identity(n: int) -> np.ndarray:
    """The n-by-n identity matrix over GF(2)."""
    if n < 0:
        raise GF2Error(f"matrix dimension must be non-negative, got {n}")
    return np.eye(n, dtype=np.uint8)


def gf2_matmul(a, b) -> np.ndarray:
    """Matrix product ``a @ b`` over GF(2)."""
    a = as_gf2(a)
    b = as_gf2(b)
    if a.shape[-1] != b.shape[0]:
        raise GF2Error(f"incompatible shapes for GF(2) matmul: {a.shape} @ {b.shape}")
    return (a.astype(np.int64) @ b.astype(np.int64) % 2).astype(np.uint8)


def gf2_matvec(matrix, vector) -> np.ndarray:
    """Matrix-vector product over GF(2).

    *vector* may also be a 2-D array of shape ``(n, k)`` holding k
    column vectors; the result then has shape ``(m, k)``.
    """
    m = as_gf2(matrix)
    v = as_gf2(vector)
    if v.ndim == 1:
        if m.shape[1] != v.shape[0]:
            raise GF2Error(
                f"incompatible shapes for GF(2) matvec: {m.shape} @ {v.shape}"
            )
        return (m.astype(np.int64) @ v.astype(np.int64) % 2).astype(np.uint8)
    return gf2_matmul(m, v)


def gf2_matvec_batch(matrix, addresses) -> np.ndarray:
    """Apply one GF(2) matrix to a whole array of integer addresses.

    *matrix* has shape ``(m, n)``; *addresses* is a 1-D array of
    unsigned integers, each interpreted as an n-component GF(2) vector
    (bit *j* of the address = component *j*).  The result is a
    ``uint64`` array of the mapped addresses (bit *i* = output
    component *i*), computed as one broadcasted ``uint8`` matmul
    reduced modulo 2 — no per-address Python work.

    This is the batch companion of :func:`gf2_matvec`: exploding each
    address into its bit vector, multiplying, and repacking gives
    exactly ``gf2_matvec(matrix, bits(a))`` for every element.  Both
    dimensions are capped at 64 so addresses pack into ``uint64`` and
    the ``uint8`` accumulation (row sums of at most 64) cannot wrap.
    """
    m = as_gf2(matrix)
    if m.ndim != 2:
        raise GF2Error(f"matrix must be 2-D, got shape {m.shape}")
    out_width, in_width = m.shape
    if in_width > 64 or out_width > 64:
        raise GF2Error(
            f"gf2_matvec_batch supports at most 64-bit addresses, "
            f"got matrix shape {m.shape}"
        )
    addr = np.atleast_1d(np.asarray(addresses, dtype=np.uint64))
    if addr.ndim != 1:
        raise GF2Error(f"addresses must be one-dimensional, got shape {addr.shape}")
    if addr.size == 0:
        return addr.copy()
    if in_width < 64 and int(addr.max()) >> in_width:
        raise GF2Error(
            f"address 0x{int(addr.max()):x} does not fit in {in_width} bits"
        )
    in_shifts = np.arange(in_width, dtype=np.uint64)
    bits = ((addr[:, np.newaxis] >> in_shifts) & np.uint64(1)).astype(np.uint8)
    # uint8 matmul accumulates modulo 256; row sums are <= 64, so the
    # accumulation is exact and `& 1` is the mod-2 reduction.
    out_bits = (bits @ m.T) & np.uint8(1)
    out_weights = np.uint64(1) << np.arange(out_width, dtype=np.uint64)
    return (out_bits.astype(np.uint64) * out_weights).sum(axis=1, dtype=np.uint64)


def _row_reduce(matrix: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Gaussian elimination to row echelon form.

    Returns the reduced matrix and the list of pivot column indices.
    Works on a copy.
    """
    m = matrix.copy()
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        # Find a pivot row with a 1 in column c.
        pivot_candidates = np.nonzero(m[r:, c])[0]
        if pivot_candidates.size == 0:
            continue
        pivot = r + int(pivot_candidates[0])
        if pivot != r:
            m[[r, pivot]] = m[[pivot, r]]
        # Eliminate all other 1s in this column (full reduction).
        elim = np.nonzero(m[:, c])[0]
        elim = elim[elim != r]
        m[elim] ^= m[r]
        pivots.append(c)
        r += 1
    return m, pivots


def gf2_rank(matrix) -> int:
    """Rank of *matrix* over GF(2)."""
    m = as_gf2(matrix)
    if m.size == 0:
        return 0
    _, pivots = _row_reduce(m)
    return len(pivots)


def is_invertible(matrix) -> bool:
    """True if the square matrix *matrix* is invertible over GF(2)."""
    m = as_gf2(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return gf2_rank(m) == m.shape[0]


def gf2_inverse(matrix) -> np.ndarray:
    """Inverse of a square matrix over GF(2).

    Raises :class:`GF2Error` if the matrix is singular.
    """
    m = as_gf2(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise GF2Error(f"only square matrices can be inverted, got shape {m.shape}")
    n = m.shape[0]
    augmented = np.concatenate([m, identity(n)], axis=1)
    reduced, pivots = _row_reduce(augmented)
    if pivots[:n] != list(range(n)):
        raise GF2Error("matrix is singular over GF(2)")
    return reduced[:, n:].copy()


def random_matrix(n: int, m: int, rng: np.random.Generator, density: float = 0.5) -> np.ndarray:
    """A random n-by-m GF(2) matrix with approximately *density* ones."""
    if not 0.0 <= density <= 1.0:
        raise GF2Error(f"density must be within [0, 1], got {density}")
    return (rng.random((n, m)) < density).astype(np.uint8)


def random_invertible(n: int, rng: np.random.Generator, max_tries: int = 256) -> np.ndarray:
    """Draw a uniformly random invertible n-by-n GF(2) matrix.

    Rejection sampling: the probability that a random binary matrix is
    invertible converges to ~0.289 as n grows, so a handful of tries
    suffices in practice.  Raises :class:`GF2Error` if *max_tries*
    draws all fail (astronomically unlikely for sane *n*).
    """
    if n == 0:
        return identity(0)
    for _ in range(max_tries):
        candidate = random_matrix(n, n, rng)
        if is_invertible(candidate):
            return candidate
    raise GF2Error(f"failed to draw an invertible {n}x{n} matrix in {max_tries} tries")


def permutation_matrix(permutation) -> np.ndarray:
    """Permutation matrix P such that ``(P @ v)[i] == v[permutation[i]]``.

    *permutation* must be a permutation of ``range(n)``.
    """
    perm = list(permutation)
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise GF2Error(f"not a permutation of range({n}): {perm}")
    p = np.zeros((n, n), dtype=np.uint8)
    p[np.arange(n), perm] = 1
    return p
