"""The 16 GPU-compute benchmarks of the paper's Table II.

Each builder synthesizes the *address structure* of its benchmark —
thread-block decomposition, per-warp coalesced transactions, kernel
sequence — scaled so a trace simulates in seconds rather than hours.
The paper's numbers that matter are encoded per benchmark:

* ``instructions_per_request`` = 1000 / APKI (Table II), which drives
  compute gaps and the GPU power estimate,
* ``expected_valley`` — the paper's grouping: the first ten
  benchmarks have entropy valleys overlapping the channel/bank bits,
  the last six do not (validated by tests against our entropy metric),
* kernel structure (e.g. LU's per-step kernels, NW's per-diagonal
  kernels, DWT2D's per-level passes) sampled down to a representative
  subset recorded in ``metadata["paper_kernels"]``.

The valley mechanism (Section II of the paper): a valley appears when
the TBs that co-execute (a window of consecutive TB ids) share their
column-derived address bits — i.e. the *slow* thread-block dimension
feeds the bits the Hynix map uses for channel/bank selection.  Valley
benchmarks below therefore iterate their TB grids column-major
(x/column slow), while non-valley benchmarks stream row-major or
access memory irregularly.

All builders take ``scale`` (trace size multiplier) and are fully
deterministic for a given seed.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import registry
from .base import KernelTrace, Workload
from .patterns import (
    TXN_BYTES,
    banded_rows,
    butterfly_pass,
    column_walk,
    make_tb,
    random_lines,
    row_segment,
    strided_gather,
    tile_rows,
)

__all__ = [
    "BENCHMARK_BUILDERS",
    "VALLEY_BENCHMARKS",
    "NON_VALLEY_BENCHMARKS",
    "ALL_BENCHMARKS",
    "TABLE2",
    "build_workload",
    "build_suite",
    "srad2_kernel1",
    "dwt2d_kernel1",
]

# Table II of the paper: APKI, MPKI, #kernels, #instructions (B).
TABLE2: Dict[str, Tuple[float, float, int, float]] = {
    "MT": (7.44, 5.69, 4, 0.19),
    "LU": (12.32, 1.97, 1022, 2.22),
    "GS": (9.09, 0.01, 510, 0.43),
    "NW": (5.25, 5.12, 255, 0.21),
    "LPS": (2.27, 1.66, 2, 2.33),
    "SC": (4.24, 3.58, 50, 1.71),
    "SRAD2": (3.29, 1.85, 4, 2.43),
    "DWT2D": (1.56, 1.21, 10, 0.33),
    "HS": (0.71, 0.08, 1, 1.3),
    "SP": (2.17, 2.16, 1, 0.12),
    "FWT": (2.69, 1.38, 22, 4.38),
    "NN": (2.33, 0.2, 4, 0.31),
    "SPMV": (5.95, 2.75, 50, 0.19),
    "LM": (18.23, 0.01, 1, 2.11),
    "MUM": (25.63, 22.53, 2, 0.23),
    "BFS": (26.92, 18.14, 24, 0.46),
}

VALLEY_BENCHMARKS: Tuple[str, ...] = (
    "MT", "LU", "GS", "NW", "LPS", "SC", "SRAD2", "DWT2D", "HS", "SP",
)
NON_VALLEY_BENCHMARKS: Tuple[str, ...] = ("FWT", "NN", "SPMV", "LM", "MUM", "BFS")
ALL_BENCHMARKS: Tuple[str, ...] = VALLEY_BENCHMARKS + NON_VALLEY_BENCHMARKS

# Array base addresses, spread through the 1 GB space so different
# data structures contribute different high bits.
_MB = 1 << 20
_BASES = [i * 48 * _MB for i in range(20)]


def _ipr(abbr: str) -> float:
    """instructions per request = 1000 / APKI."""
    return 1000.0 / TABLE2[abbr][0]


def _gap(abbr: str) -> int:
    """Per-warp compute gap in cycles, derived from compute intensity."""
    return max(2, round(_ipr(abbr) / 12))


def _scaled(value: int, scale: float, minimum: int = 2) -> int:
    return max(minimum, int(round(value * scale)))


def _finish(
    abbr: str,
    name: str,
    kernels: Sequence[KernelTrace],
    valley: bool,
    **metadata,
) -> Workload:
    apki, mpki, paper_kernels, insns_b = TABLE2[abbr]
    metadata = dict(metadata)
    metadata.setdefault("paper_apki", apki)
    metadata.setdefault("paper_mpki", mpki)
    metadata.setdefault("paper_kernels", paper_kernels)
    metadata.setdefault("paper_instructions_b", insns_b)
    return Workload(
        name=name,
        abbreviation=abbr,
        kernels=tuple(kernels),
        instructions_per_request=_ipr(abbr),
        expected_valley=valley,
        metadata=metadata,
    )


def _jitter_lines(rng: np.random.Generator, max_lines: int) -> int:
    """Per-TB start jitter in whole transactions (BVR diversity)."""
    return int(rng.integers(0, max_lines)) * TXN_BYTES


# ----------------------------------------------------------------------
# Valley benchmarks
# ----------------------------------------------------------------------
def mt(scale: float = 1.0, seed: int = 11) -> Workload:
    """Matrix Transpose (CUDA SDK).

    The strided (uncoalesced) side of the transpose walks matrix
    columns: every request of a TB shares the column-derived bits
    7-11, and the TB grid iterates column-major (column chunk slow,
    1 MB row band fast).  Co-running TBs therefore agree on the
    channel/bank bits while their diversity sits at bits >= 20 — the
    archetypal entropy valley (paper Figs. 2 and 5a).
    """
    gap = _gap("MT")
    pitch = 4096  # 1024 floats per row
    n_bands = _scaled(110, scale, minimum=24)  # fast: 1 MB row bands
    kernels = []
    for k in range(4):
        # Each kernel transposes one column panel: *every* TB of the
        # kernel shares the panel's column bits, so all concurrent
        # requests agree on the channel/bank bits regardless of how
        # many TBs the hardware co-schedules — the paper's MT is its
        # most dramatic valley benchmark (up to 7.5x, Fig. 12).
        a_base = _BASES[0] + k * 12 * _MB
        b_base = a_base + 512 * 1024  # free space between A's bands
        col_byte = (k * 3) * 128
        tbs = []
        for band in range(n_bands):
            # 13 rows per tile: an odd, non-power-aligned count keeps
            # every XOR-subset of the row bits biased away from an
            # exact 0.5 BVR, so the *mapped* addresses' entropy is
            # visible to the window metric (Fig. 10).
            rows = banded_rows(pitch, band, r0=0, count=13)
            reads = column_walk(a_base, pitch, rows, col_byte)
            # Second 128 B column of the same tile: stays inside the
            # frozen bits (bit 7 is a column-low bit, not a channel bit).
            extra = column_walk(a_base, pitch, rows[:7], col_byte + 128)
            writes = column_walk(b_base, pitch, rows, col_byte)
            txns = np.concatenate([reads, extra, writes])
            flags = np.concatenate([
                np.zeros(len(reads) + 7, dtype=bool),
                np.ones(len(writes), dtype=bool),
            ])
            tbs.append(make_tb(band, txns, flags, reqs_per_warp=8, gap=gap))
        kernels.append(KernelTrace(f"transpose_k{k}", tuple(tbs)))
    return _finish("MT", "Matrix Transpose", kernels, valley=True)


def lu(scale: float = 1.0, seed: int = 12) -> Workload:
    """LU Decomposition (CUDA SDK): right-looking factorization.

    Each step k launches a kernel whose TBs walk matrix *columns*
    (stride = row pitch), column chunks slow / row chunks fast.
    The pure column walks give LU its deep, wide valley (Fig. 5b).
    """
    gap = _gap("LU")
    pitch = 16384  # 4096 floats per row
    band_stride = 4 * _MB  # 256-row bands: window entropy at bits >= 22
    steps = _scaled(16, scale, minimum=4)
    kernels = []
    base = _BASES[2]
    for s in range(steps):
        k_col = (s * 37) % 2048
        col_chunks = max(2, 6 - s // 4)
        n_bands = 8
        tbs = []
        tb_id = 0
        for jc in range(col_chunks):       # slow: column chunk
            # Column chunks are 512 columns apart: stepping jc moves
            # the bank bits, never the channel bits, so windows that
            # straddle a chunk boundary keep the channel concentrated.
            col_byte = ((k_col * 4) + jc * 2048) % pitch
            for band in range(n_bands):    # fast: 4 MB row band
                rows = banded_rows(pitch, band, r0=0, count=12,
                                   band_stride_bytes=band_stride)
                pivot = column_walk(base, pitch, rows, (k_col * 4) % pitch)
                target = column_walk(base, pitch, rows, col_byte)
                txns = np.concatenate([pivot, target, target])
                flags = np.concatenate([
                    np.zeros(len(pivot) + len(target), dtype=bool),
                    np.ones(len(target), dtype=bool),
                ])
                tbs.append(make_tb(tb_id, txns, flags, reqs_per_warp=6, gap=gap))
                tb_id += 1
        kernels.append(KernelTrace(f"lud_step{s}", tuple(tbs)))
    return _finish("LU", "LU Decomposition", kernels, valley=True)


def gs(scale: float = 1.0, seed: int = 13) -> Workload:
    """Gaussian Elimination (Rodinia): Fan1/Fan2 kernel pairs.

    The 256 KB matrix is LLC-resident (paper MPKI 0.01), so the valley
    hurts through LLC-slice imbalance rather than DRAM.
    """
    gap = _gap("GS")
    pitch = 1024  # 256 floats per row
    n_rows = 256
    steps = _scaled(16, scale, minimum=4)
    base = _BASES[3]
    kernels = []
    for s in range(steps):
        k = (s * n_rows // steps) % (n_rows - 32)
        # Fan1: normalize column k below the pivot.
        tbs = []
        rows_below = n_rows - k - 1
        for t in range(max(1, min(8, rows_below // 32))):
            rows = k + 1 + (np.arange(32) + t * 32) % max(rows_below, 1)
            txns = column_walk(base, pitch, rows, (k * 4) % pitch)
            tbs.append(make_tb(t, txns, reqs_per_warp=8, gap=gap))
        kernels.append(KernelTrace(f"fan1_{s}", tuple(tbs)))
        # Fan2: update the trailing submatrix, column chunks slow.
        tbs = []
        tb_id = 0
        col_chunks = max(1, min(6, (n_rows - k) // 32))
        for jc in range(col_chunks):
            col_byte = ((k + jc * 32) * 4) % pitch
            for rc in range(4):
                rows = k + 1 + (np.arange(16) + rc * 16) % max(rows_below, 1)
                reads = column_walk(base, pitch, rows, col_byte)
                writes = column_walk(base, pitch, rows, col_byte)
                txns = np.concatenate([reads, writes])
                flags = np.concatenate([
                    np.zeros(len(reads), dtype=bool), np.ones(len(writes), dtype=bool)
                ])
                tbs.append(make_tb(tb_id, txns, flags, reqs_per_warp=8, gap=gap))
                tb_id += 1
        kernels.append(KernelTrace(f"fan2_{s}", tuple(tbs)))
    return _finish("GS", "Gaussian Elimination", kernels, valley=True)


def nw(scale: float = 1.0, seed: int = 14) -> Workload:
    """Needleman-Wunsch (Rodinia): diagonal wavefront over 16x16 tiles.

    Each TB reads its tile's left column (stride = row pitch) and top
    row, then writes its scores.  One kernel per tile diagonal.
    """
    gap = _gap("NW")
    pitch = 8192  # 2048 ints per row
    base_ref = _BASES[4]
    base_score = _BASES[5]
    n_diags = _scaled(20, scale, minimum=6)
    grid_rows = 24  # tile-row bands, 1 MB apart
    kernels = []
    for d in range(1, n_diags + 1):
        length = min(d + 3, 16)
        tbs = []
        for t in range(length):
            # Tile (row-band d-t+..., column t % 4): columns span only
            # 4 x 64 B so channel bit 9 stays frozen; the wavefront's
            # diversity is in the 1 MB row bands.
            band = (d - t) % grid_rows
            col_byte = (t % 4) * 64
            rows = banded_rows(pitch, band, r0=0, count=12,
                               band_stride_bytes=2 * _MB)
            left = column_walk(base_score, pitch, rows, col_byte)
            ref = column_walk(base_ref, pitch, rows, col_byte)
            # The tile's top-row halo is a contiguous, channel-balanced
            # read (uniform BVR 0.5 at bits 7-9 for every TB, so the
            # window entropy valley is untouched).
            top = row_segment(base_score + int(rows[0]) * pitch, 0, 1024)
            scores = column_walk(base_score, pitch, rows, col_byte)
            txns = np.concatenate([left, ref, top, scores])
            flags = np.concatenate([
                np.zeros(len(left) + len(ref) + len(top), dtype=bool),
                np.ones(len(scores), dtype=bool),
            ])
            tbs.append(make_tb(t, txns, flags, reqs_per_warp=6, gap=gap))
        kernels.append(KernelTrace(f"nw_diag{d}", tuple(tbs)))
    return _finish("NW", "Needleman-Wunsch", kernels, valley=True)


def lps(scale: float = 1.0, seed: int = 15) -> Workload:
    """3D Laplace solver (LPS): z-marching column slabs, x-tiles slow."""
    gap = _gap("LPS")
    x_pitch = 4096           # 1024 floats per x-row
    plane = 4 * _MB          # 1024 rows per z-plane: z varies bits >= 22
    grid_x = 8               # slow: 128 B x-tiles
    grid_y = _scaled(48, scale, minimum=12)
    z_steps = 12
    kernels = []
    for k, (src, dst) in enumerate([(_BASES[6], _BASES[7]), (_BASES[7], _BASES[6])]):
        tbs = []
        tb_id = 0
        for bx in range(grid_x):        # slow: x tile -> channel bits fixed
            for by in range(grid_y):    # fast: y row (bits 12-17)
                reads = np.concatenate([
                    row_segment(src + z * plane + by * x_pitch, bx * 128, 128)
                    for z in range(z_steps)
                ])
                writes = np.concatenate([
                    row_segment(dst + z * plane + by * x_pitch, bx * 128, 128)
                    for z in range(0, z_steps, 2)
                ])
                txns = np.concatenate([reads, writes])
                flags = np.concatenate([
                    np.zeros(len(reads), dtype=bool), np.ones(len(writes), dtype=bool)
                ])
                tbs.append(make_tb(tb_id, txns, flags, reqs_per_warp=6, gap=gap))
                tb_id += 1
        kernels.append(KernelTrace(f"laplace_k{k}", tuple(tbs)))
    return _finish("LPS", "3D Laplace Solver", kernels, valley=True)


def sc(scale: float = 1.0, seed: int = 16) -> Workload:
    """StreamCluster (Rodinia): padded point records.

    Points live in 1 KB-padded records, so every gather shares the
    channel bits — a structural valley at bits 8-9 — while the small
    shared center table adds uniformly low-entropy accesses.
    """
    gap = _gap("SC")
    record_bytes = 1024
    points_per_tb = 48
    slot_bytes = 4 * _MB  # each TB's points live in a 4 MB-aligned slot
    base_points = _BASES[8]
    base_centers = _BASES[8] + 512 * 1024  # free space inside slot 0
    n_tbs = _scaled(80, scale, minimum=12)
    iterations = 6
    kernels = []
    for it in range(iterations):
        center_lines = random_lines(
            np.random.default_rng(seed + it), base_centers, 16 * 1024, 4
        )
        tbs = []
        for t in range(n_tbs):
            # 1 KB-padded records: channel/bank bits of every gather are
            # zero.  TB slots are 1 MB apart, so inter-TB diversity sits
            # at bits >= 20 where only broad harvesting finds it.
            slot = base_points + ((t + it * 13) % n_tbs) * slot_bytes
            idx = np.arange(points_per_tb)
            points = strided_gather(slot, record_bytes, idx)
            # Sequential scan of the per-point weight array: contiguous,
            # channel-balanced traffic.  Its BVR contribution at bits
            # 7-10 is exactly 0.5 for every TB, so it adds no window
            # entropy and the structural valley survives, but it keeps
            # part of the bandwidth usable under BASE (the paper's SC
            # gains are solid, not extreme).
            weights = row_segment(base_points + 2 * _MB, t * 2048, 2048)
            # Every TB reads the same (cached) center table: identical
            # BVR contribution across TBs, so these accesses add no
            # window entropy — the structural valley stays.
            txns = np.concatenate([points, weights, center_lines])
            tbs.append(make_tb(t, txns, reqs_per_warp=8, gap=gap))
        kernels.append(KernelTrace(f"pgain_{it}", tuple(tbs)))
    return _finish("SC", "StreamCluster", kernels, valley=True)


def srad2(scale: float = 1.0, seed: int = 17) -> Workload:
    """SRAD v2 (Rodinia): 2D diffusion stencil, column tiles slow."""
    gap = _gap("SRAD2")
    pitch = 8192  # 2048 floats per row
    band_stride = 8 * _MB  # sparse row bands: window entropy at bits >= 23
    grid_x = _scaled(16, math.sqrt(scale), minimum=4)   # slow: column chunk
    n_bands = _scaled(14, math.sqrt(scale), minimum=6)  # fast
    kernels = []
    for k in range(4):
        img = _BASES[10] + (k % 2) * 2 * _MB
        out = img + 4 * _MB  # free space between img's 8 MB bands
        tbs = []
        tb_id = 0
        for bx in range(grid_x):
            col_byte = bx * 128
            for band in range(n_bands):
                rows = banded_rows(pitch, band, r0=0, count=12,
                                   band_stride_bytes=band_stride)
                center = column_walk(img, pitch, rows, col_byte)
                east = column_walk(img, pitch, rows, (col_byte + 128) % pitch)
                writes = column_walk(out, pitch, rows, col_byte)
                txns = np.concatenate([center, east, writes])
                flags = np.concatenate([
                    np.zeros(len(center) + len(east), dtype=bool),
                    np.ones(len(writes), dtype=bool),
                ])
                tbs.append(make_tb(tb_id, txns, flags, reqs_per_warp=6, gap=gap))
                tb_id += 1
        kernels.append(KernelTrace(f"srad2_k{k}", tuple(tbs)))
    return _finish("SRAD2", "SRAD v2", kernels, valley=True)


def dwt2d(scale: float = 1.0, seed: int = 18) -> Workload:
    """DWT2D (Rodinia): multi-level wavelet transform.

    Each level doubles the row stride of the vertical pass, moving the
    valley across the address bits — the per-kernel valleys are narrow
    but the application profile's is broad (paper Fig. 5i vs 5j).
    """
    gap = _gap("DWT2D")
    pitch = 4096
    levels = 4
    base = _BASES[12]
    out = _BASES[13]
    kernels = []
    for level in range(levels):
        step = 1 << level
        grid_x = max(2, 12 >> level)        # slow: column tiles
        n_bands = _scaled(14, scale, minimum=6)
        # Vertical pass: rows step by 2**level inside 1 MB bands. The
        # growing step drags the within-TB variation across different
        # bits per level — narrow per-kernel valleys that merge into
        # the broad application valley of the paper's Fig. 5i.
        tbs = []
        tb_id = 0
        for bx in range(grid_x):
            for band in range(n_bands):
                count = 12 if step * 12 <= 64 else 64 // step
                rows = banded_rows(pitch, band, r0=0, count=count, step=step)
                reads = column_walk(base, pitch, rows, bx * 128)
                writes = column_walk(out, pitch, rows[: max(1, count // 2)], bx * 128)
                txns = np.concatenate([reads, writes])
                flags = np.concatenate([
                    np.zeros(len(reads), dtype=bool), np.ones(len(writes), dtype=bool)
                ])
                tbs.append(make_tb(tb_id, txns, flags, reqs_per_warp=6, gap=gap))
                tb_id += 1
        kernels.append(KernelTrace(f"dwt_v{level}", tuple(tbs)))
        # Horizontal pass: contiguous row segments at halved width.
        tbs = []
        width = max(256, 2048 >> level)
        for t in range(_scaled(24, scale, minimum=6)):
            row = (t * 7 + level) % 1024
            txns = row_segment(base + row * pitch, 0, width)
            tbs.append(make_tb(t, txns, reqs_per_warp=8, gap=gap))
        kernels.append(KernelTrace(f"dwt_h{level}", tuple(tbs)))
    return _finish("DWT2D", "DWT2D", kernels, valley=True)


def hs(scale: float = 1.0, seed: int = 19) -> Workload:
    """Hotspot (Rodinia): compute-bound 2D stencil (APKI 0.71).

    Shares the column-slow tiling of the other stencils but the large
    compute gaps make it insensitive to the memory system.
    """
    gap = 2 * _gap("HS")  # Hotspot is the suite's most compute-bound code
    pitch = 2048  # 512 floats per row
    grid_x = _scaled(12, math.sqrt(scale), minimum=4)
    grid_y = _scaled(8, math.sqrt(scale), minimum=4)
    temp = _BASES[14]
    power = _BASES[15]
    tbs = []
    tb_id = 0
    for bx in range(grid_x):
        for band in range(grid_y):
            rows = banded_rows(pitch, band, r0=0, count=12)
            t_reads = column_walk(temp, pitch, rows, (bx * 128) % pitch)
            p_reads = column_walk(power, pitch, rows[:6], (bx * 128) % pitch)
            writes = column_walk(temp, pitch, rows[:6], (bx * 128) % pitch)
            txns = np.concatenate([t_reads, p_reads, writes])
            flags = np.concatenate([
                np.zeros(len(t_reads) + len(p_reads), dtype=bool),
                np.ones(len(writes), dtype=bool),
            ])
            tbs.append(make_tb(tb_id, txns, flags, reqs_per_warp=6, gap=gap))
            tb_id += 1
    return _finish("HS", "Hotspot", [KernelTrace("hotspot", tuple(tbs))], valley=True)


def sp(scale: float = 1.0, seed: int = 20) -> Workload:
    """Scalar Product (CUDA SDK): padded vector-pair dot products.

    Each TB reduces one vector pair stored in 8 KB-padded segments of
    which only the 512 B head is touched — all transactions share
    channel bit 9, the structural half-valley behind SP's moderate
    speedup.
    """
    gap = _gap("SP")
    seg_stride = 8192
    width = 512
    n_tbs = _scaled(224, scale, minimum=16)
    base_a = _BASES[16]
    base_b = _BASES[17]
    tbs = []
    for t in range(n_tbs):
        a = row_segment(base_a + t * seg_stride, 0, width)
        b = row_segment(base_b + t * seg_stride, 0, width)
        # Block partial sums are 4 B each, so 32 consecutive TBs share
        # one result transaction — like the segments, it contributes
        # no entropy to the channel bits.
        partial = row_segment(base_a + 40 * _MB, (t // 32) * 128, 128)
        txns = np.concatenate([a, b, partial])
        flags = np.zeros(len(txns), dtype=bool)
        flags[-len(partial):] = True
        tbs.append(make_tb(t, txns, flags, reqs_per_warp=4, gap=gap))
    return _finish("SP", "Scalar Product", [KernelTrace("dot", tuple(tbs))], valley=True)


# ----------------------------------------------------------------------
# Non-valley benchmarks
# ----------------------------------------------------------------------
def fwt(scale: float = 1.0, seed: int = 21) -> Workload:
    """Fast Walsh Transform (CUDA SDK): butterfly passes.

    Power-of-two strides vary per stage, and consecutive TBs cover
    consecutive element groups, so entropy concentrates in the lower
    bits without a stable valley.
    """
    gap = _gap("FWT")
    n_elems = 1 << 20
    base = _BASES[18]
    stages = _scaled(8, scale, minimum=4)
    groups = 96
    kernels = []
    for s in range(stages):
        stage = 2 + (s * 2) % 16
        tbs = []
        for g in range(_scaled(groups, scale, minimum=12)):
            txns = butterfly_pass(base, n_elems, 4, stage, g, group_elems=96)
            tbs.append(make_tb(g, txns, reqs_per_warp=8, gap=gap))
        kernels.append(KernelTrace(f"fwt_s{stage}", tuple(tbs)))
    return _finish("FWT", "Fast Walsh Transform", kernels, valley=False)


def nn(scale: float = 1.0, seed: int = 22) -> Workload:
    """NN (nearest neighbor): streaming record scans with per-TB skew."""
    gap = _gap("NN")
    rng = np.random.default_rng(seed)
    base = _BASES[19]
    n_tbs = _scaled(96, scale, minimum=12)
    kernels = []
    for k in range(4):
        tbs = []
        for t in range(n_tbs):
            start = t * 8192 + _jitter_lines(rng, 16) + k * 2 * _MB
            width = int(rng.integers(2048, 4097))
            txns = row_segment(base, start, width)
            tbs.append(make_tb(t, txns, reqs_per_warp=8, gap=gap))
        kernels.append(KernelTrace(f"nn_k{k}", tuple(tbs)))
    return _finish("NN", "Nearest Neighbor", kernels, valley=False)


def spmv(scale: float = 1.0, seed: int = 23) -> Workload:
    """SpMV (Parboil): CSR rows plus random x-vector gathers."""
    gap = _gap("SPMV")
    rng = np.random.default_rng(seed)
    vals = _BASES[0] + 30 * _MB
    xvec = _BASES[1] + 30 * _MB
    n_tbs = _scaled(48, scale, minimum=8)
    kernels = []
    for k in range(8):
        tbs = []
        for t in range(n_tbs):
            row_bytes = int(rng.integers(1536, 3072))
            stream = row_segment(vals, (t * 4096 + k * 512 * 1024), row_bytes)
            gathers = random_lines(rng, xvec, 512 * 1024, 10)
            txns = np.concatenate([stream, gathers])
            tbs.append(make_tb(t, txns, reqs_per_warp=8, gap=gap))
        kernels.append(KernelTrace(f"spmv_k{k}", tuple(tbs)))
    return _finish("SPMV", "SpMV", kernels, valley=False)


def lm(scale: float = 1.0, seed: int = 24) -> Workload:
    """LavaMD (Rodinia): per-box particle interactions, cache friendly."""
    gap = _gap("LM")
    rng = np.random.default_rng(seed)
    box_bytes = 2048
    boxes_per_dim = 8
    n_boxes = boxes_per_dim ** 3
    base = _BASES[2] + 30 * _MB
    tbs = []
    n_tbs = _scaled(n_boxes, scale, minimum=27)
    for t in range(n_tbs):
        box = t % n_boxes
        own = row_segment(base + box * box_bytes, 0, box_bytes)
        neigh_count = int(rng.integers(6, 14))
        offsets = rng.integers(-2, 3, size=(neigh_count, 3))
        neigh_boxes = []
        bz, by, bx = (box // 64) % 8, (box // 8) % 8, box % 8
        for dz, dy, dx in offsets:
            nb = (((bz + dz) % 8) * 64 + ((by + dy) % 8) * 8 + (bx + dx) % 8)
            neigh_boxes.append(nb)
        neigh = np.concatenate([
            row_segment(base + nb * box_bytes, 0, 256) for nb in neigh_boxes
        ])
        txns = np.concatenate([own, neigh])
        tbs.append(make_tb(t, txns, reqs_per_warp=8, gap=gap))
    return _finish("LM", "LavaMD", [KernelTrace("lavamd", tuple(tbs))], valley=False)


def mum(scale: float = 1.0, seed: int = 25) -> Workload:
    """MUMmerGPU (Rodinia): random suffix-tree descents (MPKI 22.5)."""
    gap = _gap("MUM")
    rng = np.random.default_rng(seed)
    tree = _BASES[3] + 30 * _MB
    queries = _BASES[4] + 30 * _MB
    n_tbs = _scaled(128, scale, minimum=16)
    kernels = []
    for k in range(2):
        tbs = []
        for t in range(n_tbs):
            walk_len = int(rng.integers(32, 64))
            walk = random_lines(rng, tree, 192 * _MB, walk_len)
            query = row_segment(queries, t * 2048 + k * _MB, 512)
            txns = np.concatenate([walk, query])
            tbs.append(make_tb(t, txns, reqs_per_warp=8, gap=gap))
        kernels.append(KernelTrace(f"mummer_k{k}", tuple(tbs)))
    return _finish("MUM", "MUMmerGPU", kernels, valley=False)


def bfs(scale: float = 1.0, seed: int = 26) -> Workload:
    """BFS (Rodinia): frontier expansion over an irregular graph."""
    gap = _gap("BFS")
    rng = np.random.default_rng(seed)
    nodes = _BASES[5] + 30 * _MB
    edges = _BASES[6] + 30 * _MB
    levels = 8
    kernels = []
    for level in range(levels):
        frontier = int(24 + 40 * math.sin(math.pi * (level + 1) / levels) ** 2)
        n_tbs = _scaled(frontier, scale, minimum=6)
        tbs = []
        for t in range(n_tbs):
            node_reads = random_lines(rng, nodes, 32 * _MB, int(rng.integers(12, 24)))
            edge_start = int(rng.integers(0, 128 * _MB // 4096)) * 4096
            edge_reads = row_segment(edges, edge_start, int(rng.integers(512, 2048)))
            txns = np.concatenate([node_reads, edge_reads])
            writes = np.zeros(len(txns), dtype=bool)
            writes[: len(node_reads) // 4] = True  # visited-flag updates
            tbs.append(make_tb(t, txns, writes, reqs_per_warp=8, gap=gap))
        kernels.append(KernelTrace(f"bfs_l{level}", tuple(tbs)))
    return _finish("BFS", "BFS", kernels, valley=False)


# ----------------------------------------------------------------------
# Kernel views (the paper's Fig. 5h / 5j single-kernel profiles)
# ----------------------------------------------------------------------
def srad2_kernel1(scale: float = 1.0, seed: int = 17) -> Workload:
    """SRAD2's first kernel in isolation (paper Fig. 5h)."""
    full = srad2(scale, seed)
    return _finish(
        "SRAD2", "SRAD v2 (kernel 1)", [full.kernels[0]], valley=True,
        kernel_view="SRAD2K1",
    )


def dwt2d_kernel1(scale: float = 1.0, seed: int = 18) -> Workload:
    """DWT2D's first vertical pass in isolation (paper Fig. 5j)."""
    full = dwt2d(scale, seed)
    return _finish(
        "DWT2D", "DWT2D (kernel 1)", [full.kernels[0]], valley=True,
        kernel_view="DWT2DK1",
    )


# ----------------------------------------------------------------------
# Registry: the Table II suite is just the pre-registered entries of
# repro.registry — user workloads register the same way.
# ----------------------------------------------------------------------
BENCHMARK_BUILDERS: Dict[str, Callable[..., Workload]] = {
    "MT": mt, "LU": lu, "GS": gs, "NW": nw, "LPS": lps, "SC": sc,
    "SRAD2": srad2, "DWT2D": dwt2d, "HS": hs, "SP": sp,
    "FWT": fwt, "NN": nn, "SPMV": spmv, "LM": lm, "MUM": mum, "BFS": bfs,
}

for _abbr, _builder in BENCHMARK_BUILDERS.items():
    registry.register_workload(_abbr, origin="builtin")(_builder)
del _abbr, _builder


def build_workload(abbr: str, scale: float = 1.0) -> Workload:
    """Build one registered workload by name (Table II or user-registered)."""
    try:
        return registry.make_workload(abbr, scale=scale)
    except registry.RegistryError as error:
        raise ValueError(str(error)) from None


def build_suite(
    scale: float = 1.0, names: Optional[Sequence[str]] = None
) -> Dict[str, Workload]:
    """Build the full suite (or a subset) keyed by abbreviation."""
    selected = tuple(names) if names is not None else ALL_BENCHMARKS
    return {abbr: build_workload(abbr, scale) for abbr in selected}
