"""Access-pattern building blocks for the benchmark suite.

These helpers generate *coalesced transaction* address streams (128 B
aligned) for the classic GPU-compute access idioms the paper's
benchmarks are built from:

* contiguous row segments (row-major streaming),
* column walks (one transaction per matrix row — the pattern behind
  the entropy valleys, cf. the paper's Fig. 2 TB-CM0 example),
* 2D tiles and stencil halos,
* butterfly (power-of-two stride) passes,
* irregular gathers (CSR sparse rows, graph frontiers, random walks).

All helpers return uint64 numpy arrays of byte addresses wrapped into
the given address-space size.  :func:`make_tb` cuts a TB's stream into
warps.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .base import TBTrace

__all__ = [
    "TXN_BYTES",
    "align",
    "row_segment",
    "column_walk",
    "tile_rows",
    "strided_gather",
    "butterfly_pass",
    "banded_rows",
    "random_lines",
    "make_tb",
]

TXN_BYTES = 128


def align(addresses, txn_bytes: int = TXN_BYTES) -> np.ndarray:
    """Align byte addresses down to transaction boundaries."""
    addr = np.asarray(addresses, dtype=np.uint64)
    mask = ~np.uint64(txn_bytes - 1)
    return addr & mask


def _wrap(addresses: np.ndarray, space_bits: int) -> np.ndarray:
    return addresses & np.uint64((1 << space_bits) - 1)


def row_segment(
    base: int, start_byte: int, width_bytes: int, space_bits: int = 30
) -> np.ndarray:
    """Transactions covering a contiguous byte range (row-major stream)."""
    if width_bytes <= 0:
        raise ValueError(f"width_bytes must be positive, got {width_bytes}")
    first = (base + start_byte) // TXN_BYTES
    last = (base + start_byte + width_bytes - 1) // TXN_BYTES
    txns = np.arange(first, last + 1, dtype=np.uint64) * np.uint64(TXN_BYTES)
    return _wrap(txns, space_bits)


def column_walk(
    base: int,
    row_bytes: int,
    rows: Sequence[int],
    col_byte: int,
    space_bits: int = 30,
) -> np.ndarray:
    """One transaction per row at a fixed column offset (column access).

    This is the TB-CM0 pattern of the paper's Figure 2: every request
    shares the column-derived low/middle address bits, so whichever
    DRAM resource those bits select receives *all* of the traffic.
    """
    if row_bytes <= 0:
        raise ValueError(f"row_bytes must be positive, got {row_bytes}")
    rows = np.asarray(rows, dtype=np.uint64)
    addrs = np.uint64(base) + rows * np.uint64(row_bytes) + np.uint64(col_byte)
    return _wrap(align(addrs), space_bits)


def tile_rows(
    base: int,
    row_bytes: int,
    row0: int,
    n_rows: int,
    col_byte: int,
    width_bytes: int,
    space_bits: int = 30,
) -> np.ndarray:
    """Transactions of a dense 2D tile, row by row."""
    parts = [
        row_segment(base + (row0 + r) * row_bytes, col_byte, width_bytes, space_bits)
        for r in range(n_rows)
    ]
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.uint64)


def strided_gather(
    base: int,
    stride_bytes: int,
    indices: Sequence[int],
    space_bits: int = 30,
) -> np.ndarray:
    """Transactions at ``base + i * stride`` for each index (AoS gather)."""
    idx = np.asarray(indices, dtype=np.uint64)
    addrs = np.uint64(base) + idx * np.uint64(stride_bytes)
    return _wrap(align(addrs), space_bits)


def butterfly_pass(
    base: int,
    n_elements: int,
    elem_bytes: int,
    stage: int,
    group: int,
    group_elems: int,
    space_bits: int = 30,
) -> np.ndarray:
    """One butterfly group of an FFT/FWT-style pass.

    Group *group* of stage *stage* touches the element pairs
    ``(i, i + 2**stage)`` for ``i`` in the group's range; transactions
    are deduplicated in first-touch order.
    """
    if stage < 0:
        raise ValueError(f"stage must be non-negative, got {stage}")
    half = 1 << stage
    start = group * group_elems
    i = start + np.arange(group_elems, dtype=np.uint64)
    lo = i + (i // half) * half  # skip partner halves
    hi = lo + np.uint64(half)
    idx = np.concatenate([lo, hi]) % np.uint64(max(n_elements, 1))
    addrs = np.uint64(base) + idx * np.uint64(elem_bytes)
    lines = align(addrs)
    _, first = np.unique(lines, return_index=True)
    return _wrap(lines[np.sort(first)], space_bits)


def random_lines(
    rng: np.random.Generator,
    base: int,
    footprint_bytes: int,
    count: int,
    space_bits: int = 30,
) -> np.ndarray:
    """Uniform random transactions within a footprint (graph/tree walks)."""
    if footprint_bytes < TXN_BYTES:
        raise ValueError(f"footprint must hold at least one transaction")
    lines = rng.integers(0, footprint_bytes // TXN_BYTES, size=count, dtype=np.uint64)
    addrs = np.uint64(base) + lines * np.uint64(TXN_BYTES)
    return _wrap(addrs, space_bits)


def banded_rows(
    pitch_bytes: int,
    band: int,
    r0: int = 0,
    count: int = 16,
    step: int = 1,
    band_stride_bytes: int = 1 << 20,
) -> np.ndarray:
    """Matrix-row indices of a *band-aligned* row block.

    GPU-compute workloads frequently process a matrix in row blocks
    whose alignment is a large power of two (tile heights x pitch).
    With pitch ``2**p``, matrix-row bit *k* lands at address bit
    ``p + k``; choosing ``band_stride_bytes >= 2**20`` and keeping the
    local rows below ``2**18 / pitch`` pins address bits 18-19 (the
    least significant DRAM row bits of the Hynix map) to zero while
    putting the block-to-block variation at address bits >= 20.

    That is precisely the structure that defeats narrow-harvest
    mappings: PM's XOR sources (the lowest row bits) are dead, while
    the entropy PAE/FAE gather lives higher up (paper Section IV).
    """
    if pitch_bytes <= 0 or pitch_bytes & (pitch_bytes - 1):
        raise ValueError(f"pitch must be a positive power of two, got {pitch_bytes}")
    if band_stride_bytes % pitch_bytes:
        raise ValueError("band stride must be a whole number of rows")
    local_limit = max(1, (1 << 18) // pitch_bytes)
    local = r0 + np.arange(count, dtype=np.int64) * step
    if count and int(local.max()) >= local_limit:
        raise ValueError(
            f"local rows reach {int(local.max())} but only {local_limit} rows "
            f"keep address bits 18-19 dead at pitch {pitch_bytes}"
        )
    band_rows = band_stride_bytes // pitch_bytes
    return band * band_rows + local


def make_tb(
    tb_id: int,
    transactions: np.ndarray,
    writes: Optional[np.ndarray] = None,
    reqs_per_warp: int = 8,
    gap: int = 8,
) -> TBTrace:
    """One TB from a flat transaction stream.

    Consecutive chunks of *reqs_per_warp* transactions become one warp
    each, mirroring how a TB's warps jointly cover its working set;
    every transaction is preceded by *gap* compute cycles.
    """
    if reqs_per_warp <= 0:
        raise ValueError(f"reqs_per_warp must be positive, got {reqs_per_warp}")
    transactions = np.asarray(transactions, dtype=np.uint64)
    n = len(transactions)
    if writes is None:
        writes = np.zeros(n, dtype=bool)
    elif len(writes) != n:
        raise ValueError("writes mask must match the transaction count")
    if not n:
        raise ValueError(f"TB {tb_id} would have no transactions")
    warp_ends = np.arange(reqs_per_warp, n + reqs_per_warp, reqs_per_warp)
    warp_ends[-1] = n
    return TBTrace(
        tb_id, transactions, np.full(n, gap, dtype=np.int64), writes, warp_ends
    )
