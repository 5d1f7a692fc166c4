"""Window-based address-bit entropy analysis (paper Section III).

GPU-compute workloads are too concurrent for flip-rate entropy
estimators, so the paper measures, per address bit:

1. the **Bit Value Ratio (BVR)** of every Thread Block — the fraction
   of 1-values the bit takes across the TB's memory requests,
2. the per-window Shannon entropy of the *distribution of BVR values*
   among the ``w`` TBs inside a window sliding over the TBs in issue
   (identifier) order, where ``w`` approximates how many TBs execute
   concurrently (heuristically: the number of SMs), and
3. the **window-based entropy** ``H*`` — the arithmetic mean of the
   window entropies (Eq. 2).

Entropy uses Shannon's function with logarithm base ``v`` (the number
of unique BVR values in the window, Eq. 1), so each window entropy
lies in [0, 1]; a window with a single unique BVR value has entropy 0.
The paper's footnote 1 fixes the convention: BVRs {0, 0, 1} give
probabilities (2/3, 1/3) and entropy 0.92 (i.e. base-2 for v=2).

Applications are analyzed per kernel (TBs of different kernels never
co-execute in the paper's setup); the application profile is the
per-kernel profile average weighted by memory request count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .address_map import AddressMap
from .gf2 import gf2_matvec_batch

__all__ = [
    "EntropyProfile",
    "translate_kernel_inputs",
    "bit_value_ratios",
    "window_entropy",
    "entropy_of_bvr_window",
    "stream_entropy",
    "kernel_entropy_profile",
    "application_entropy_profile",
    "average_entropy_profile",
    "find_entropy_valleys",
    "has_parallel_bit_valley",
]


def translate_kernel_inputs(kernels, matrix):
    """Map every address of every kernel through a GF(2) matrix at once.

    *kernels* has the :meth:`~repro.workloads.base.Workload.entropy_kernel_inputs`
    shape — ``(tb_address_arrays, weight)`` pairs.  The whole trace
    (all TBs of all kernels) is concatenated, translated in a single
    :func:`~repro.core.gf2.gf2_matvec_batch` call, and split back, so a
    mapped entropy profile (paper Fig. 10) costs one numpy product
    instead of one matrix application per Thread Block.  Weights and
    TB boundaries are preserved.
    """
    arrays = []
    shapes = []  # (n_tbs, [lengths...], weight) per kernel
    for tb_arrays, weight in kernels:
        tbs = [np.atleast_1d(np.asarray(a, dtype=np.uint64)) for a in tb_arrays]
        arrays.extend(tbs)
        shapes.append(([a.size for a in tbs], weight))
    if not arrays:
        return [([], weight) for _, weight in shapes]
    flat = arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
    mapped = gf2_matvec_batch(matrix, flat)
    out = []
    offset = 0
    for lengths, weight in shapes:
        tbs = []
        for length in lengths:
            tbs.append(mapped[offset:offset + length])
            offset += length
        out.append((tbs, weight))
    return out


def _address_bits(addresses: np.ndarray, width: int) -> np.ndarray:
    """Explode uint addresses into a (n_requests, width) 0/1 matrix."""
    addr = np.ascontiguousarray(addresses, dtype="<u8")
    bits = np.unpackbits(addr.view(np.uint8).reshape(-1, 8), axis=1,
                         bitorder="little")
    return bits[:, :width]


def bit_value_ratios(addresses, width: int) -> np.ndarray:
    """BVR of each address bit across one TB's requests.

    Returns a float array of shape ``(width,)``; entry *i* is the
    fraction of the TB's requests whose address bit *i* is 1.
    """
    addr = np.asarray(addresses, dtype=np.uint64)
    if addr.size == 0:
        raise ValueError("cannot compute BVRs of an empty request list")
    return _address_bits(addr, width).mean(axis=0)


def entropy_of_bvr_window(bvr_values: Sequence[float]) -> float:
    """Entropy of one window of BVR values (Eq. 1 with log base v).

    *bvr_values* are the BVRs of the TBs inside the window.  The
    number of unique values determines the logarithm base, so the
    result is normalized to [0, 1].  One unique value gives 0.
    """
    values = np.asarray(bvr_values, dtype=float)
    if values.size == 0:
        raise ValueError("window must contain at least one BVR value")
    _, counts = np.unique(values, return_counts=True)
    v = counts.size
    if v == 1:
        return 0.0
    p = counts / values.size
    # min() guards the [0, 1] contract against float rounding: the
    # normalized entropy can exceed 1 by an ulp when all probabilities
    # are equal.
    return float(min(1.0, -(p * np.log2(p)).sum() / np.log2(v)))


def window_entropy(bvrs: np.ndarray, window: int) -> np.ndarray:
    """Window-based entropy ``H*`` per address bit (Eq. 2), vectorized.

    Parameters
    ----------
    bvrs:
        Array of shape ``(n_tbs, width)``: row *t* holds TB *t*'s BVRs,
        with TBs ordered by identifier (issue order).
    window:
        Concurrency window size ``w``.  Clamped to ``n_tbs`` when the
        kernel has fewer TBs than the window (a single window then
        covers the whole kernel).

    Returns the per-bit ``H*`` array of shape ``(width,)``.
    """
    bvrs = np.asarray(bvrs, dtype=float)
    if bvrs.ndim != 2:
        raise ValueError(f"bvrs must be 2-D (n_tbs, width), got shape {bvrs.shape}")
    n_tbs, width = bvrs.shape
    if n_tbs == 0:
        raise ValueError("need at least one TB")
    if window < 1:
        raise ValueError(f"window size must be >= 1, got {window}")
    w = min(window, n_tbs)
    n_windows = n_tbs - w + 1

    result = np.empty(width, dtype=float)
    for bit in range(width):
        column = bvrs[:, bit]
        # Quantize to kill float noise between identically-derived BVRs,
        # then code each unique value as an integer.
        codes = np.unique(np.round(column, 12), return_inverse=True)[1]
        v_total = int(codes.max()) + 1
        if v_total == 1:
            result[bit] = 0.0
            continue
        # One-hot cumulative counts -> per-window value histograms.
        one_hot = np.zeros((n_tbs + 1, v_total), dtype=np.int64)
        one_hot[np.arange(1, n_tbs + 1), codes] = 1
        cumulative = one_hot.cumsum(axis=0)
        counts = cumulative[w:] - cumulative[:-w]  # (n_windows, v_total)
        p = counts / w
        with np.errstate(divide="ignore", invalid="ignore"):
            plogp = np.where(counts > 0, p * np.log2(p), 0.0)
        v_in_window = (counts > 0).sum(axis=1)
        h = -plogp.sum(axis=1)
        norm = np.where(v_in_window > 1, np.log2(np.maximum(v_in_window, 2)), 1.0)
        # minimum() guards the normalized [0, 1] contract against float
        # rounding (uniform windows can land an ulp above 1).
        h = np.where(v_in_window > 1, np.minimum(h / norm, 1.0), 0.0)
        result[bit] = h.sum() / n_windows
    return result


def stream_entropy(addresses, width: int) -> np.ndarray:
    """Plain per-bit Shannon entropy of a flat address stream.

    This is the classic (CPU-style) metric used for the Figure 1
    comparison: per bit, entropy of the Bernoulli distribution with
    p = fraction of 1s, in bits (base 2).
    """
    p = bit_value_ratios(addresses, width)
    h = np.zeros(width, dtype=float)
    mask = (p > 0) & (p < 1)
    pm = p[mask]
    h[mask] = -(pm * np.log2(pm) + (1 - pm) * np.log2(1 - pm))
    return h


@dataclass(frozen=True)
class EntropyProfile:
    """A per-bit entropy distribution tied to an address map.

    ``values[i]`` is the entropy of address bit *i*.  Helper queries
    slice the profile by the map's fields, mirroring how the paper
    reads its Figure 5 plots.
    """

    values: np.ndarray
    address_map: AddressMap
    label: str = ""

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.address_map.width,):
            raise ValueError(
                f"profile must have one value per address bit "
                f"({self.address_map.width}), got shape {values.shape}"
            )
        object.__setattr__(self, "values", values)

    def of_bits(self, bits: Iterable[int]) -> np.ndarray:
        return self.values[np.asarray(sorted(bits), dtype=int)]

    def parallel_bit_entropy(self) -> float:
        """Mean entropy of the channel/bank (parallel-unit) bits."""
        return float(self.of_bits(self.address_map.parallel_bits()).mean())

    def plotted_bits(self) -> Tuple[int, ...]:
        """Bits shown in the paper's plots: everything above the block offset."""
        return self.address_map.non_block_bits()

    def series(self) -> List[Tuple[int, float]]:
        """(bit, entropy) pairs for the plotted bits, MSB first (paper order)."""
        return [(b, float(self.values[b])) for b in sorted(self.plotted_bits(), reverse=True)]

    def __repr__(self) -> str:
        return (
            f"EntropyProfile({self.label!r}, parallel-bit mean="
            f"{self.parallel_bit_entropy():.3f})"
        )


def kernel_entropy_profile(
    tb_addresses: Sequence[np.ndarray],
    address_map: AddressMap,
    window: int,
    label: str = "",
) -> EntropyProfile:
    """Window-based entropy profile of one kernel.

    *tb_addresses* holds one address array per TB, ordered by TB
    identifier.  Empty TBs (no memory requests) are skipped, matching
    the paper's request-driven methodology.  The kernel's addresses
    are exploded into bits once and each TB's rows summed with
    ``np.add.reduceat``; the sums are exact, so every BVR equals
    :func:`bit_value_ratios` of that TB alone.
    """
    populated = [np.asarray(a, dtype=np.uint64) for a in tb_addresses if len(a)]
    if not populated:
        raise ValueError("kernel has no memory requests")
    lengths = np.array([a.size for a in populated])
    ones = np.add.reduceat(
        _address_bits(np.concatenate(populated), address_map.width),
        np.cumsum(lengths) - lengths, axis=0, dtype=np.int64,
    )
    bvrs = ones / lengths[:, np.newaxis]
    return EntropyProfile(window_entropy(bvrs, window), address_map, label)


def application_entropy_profile(
    kernels: Sequence[Tuple[Sequence[np.ndarray], int]],
    address_map: AddressMap,
    window: int,
    label: str = "",
) -> EntropyProfile:
    """Application profile: request-count weighted mean of kernel profiles.

    *kernels* is a sequence of ``(tb_addresses, weight)`` pairs where
    the weight is the kernel's memory request count (paper Section
    III-A).  A weight of ``None``/0 is replaced by the actual request
    count.
    """
    if not kernels:
        raise ValueError("need at least one kernel")
    total = np.zeros(address_map.width, dtype=float)
    weight_sum = 0.0
    for tb_addresses, weight in kernels:
        profile = kernel_entropy_profile(tb_addresses, address_map, window)
        if not weight:
            weight = int(sum(len(a) for a in tb_addresses))
        total += profile.values * weight
        weight_sum += weight
    return EntropyProfile(total / weight_sum, address_map, label)


def average_entropy_profile(profiles: Sequence[EntropyProfile]) -> np.ndarray:
    """Global per-bit average across benchmark profiles (drives RMP)."""
    if not profiles:
        raise ValueError("need at least one profile")
    widths = {p.address_map.width for p in profiles}
    if len(widths) != 1:
        raise ValueError(f"profiles disagree on address width: {sorted(widths)}")
    return np.stack([p.values for p in profiles]).mean(axis=0)


def find_entropy_valleys(
    profile: EntropyProfile,
    threshold: float = 0.35,
    min_width: int = 2,
) -> List[Tuple[int, int]]:
    """Contiguous low-entropy bit ranges among the plotted bits.

    Returns ``(low_bit, high_bit)`` inclusive ranges where every bit's
    entropy is below *threshold* and at least one *higher* plotted bit
    exceeds it (the valley has an upper wall).  CPU-style profiles —
    entropy concentrated in the low bits, decaying monotonically
    towards the MSBs — therefore report none: their only low region
    ends at the MSB and has no wall above it.  A lower wall is not
    required because the lowest transaction-offset bits can be
    structurally constant (128 B coalesced transactions) without that
    changing what the valley means for the channel/bank bits above.
    """
    bits = sorted(profile.plotted_bits())
    values = {b: profile.values[b] for b in bits}
    low = [b for b in bits if values[b] < threshold]
    ranges: List[Tuple[int, int]] = []
    start = None
    previous = None
    for b in bits:
        if b in set(low):
            if start is None:
                start = b
            previous = b
        else:
            if start is not None:
                ranges.append((start, previous))
                start = None
    if start is not None:
        ranges.append((start, previous))

    def has_upper_wall(hi: int) -> bool:
        return any(values[b] >= threshold for b in bits if b > hi)

    return [
        (lo, hi)
        for lo, hi in ranges
        if hi - lo + 1 >= min_width and has_upper_wall(hi)
    ]


def has_parallel_bit_valley(profile: EntropyProfile, threshold: float = 0.35) -> bool:
    """True if an entropy valley overlaps the channel/bank bits.

    This is the condition under which the paper predicts large gains
    from Broad-strategy mapping (the top ten benchmarks of Table II).
    """
    parallel = set(profile.address_map.parallel_bits())
    for lo, hi in find_entropy_valleys(profile, threshold):
        if parallel.intersection(range(lo, hi + 1)):
            return True
    return False
