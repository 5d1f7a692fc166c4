"""Per-TB reference for window-based entropy profiles.

:func:`repro.core.entropy.kernel_entropy_profile` explodes a kernel's
addresses into bits once and sums each TB's rows with
``np.add.reduceat``.  The functions here are the direct reading of
the paper's Section III it replaced, kept as its oracle: one
:func:`~repro.core.entropy.bit_value_ratios` call per TB, the window
entropy over those rows, and the request-weighted kernel mean.
``tests/core/test_entropy.py`` pins the production profile to them
bit for bit.
"""

import numpy as np

from repro.core.entropy import bit_value_ratios, window_entropy


def kernel_profile(tb_addresses, address_map, window) -> np.ndarray:
    """Per-bit window entropy of one kernel, one BVR call per TB."""
    bvrs = np.stack([
        bit_value_ratios(np.asarray(a, dtype=np.uint64), address_map.width)
        for a in tb_addresses if len(a)
    ])
    return window_entropy(bvrs, window)


def application_profile(kernels, address_map, window) -> np.ndarray:
    """Request-weighted mean of the kernels' profiles."""
    total = np.zeros(address_map.width, dtype=float)
    weight_sum = 0.0
    for tb_addresses, weight in kernels:
        total += kernel_profile(tb_addresses, address_map, window) * weight
        weight_sum += weight
    return total / weight_sum
