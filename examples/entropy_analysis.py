#!/usr/bin/env python3
"""Window-based entropy analysis of your own access pattern.

Builds a small custom workload (a strided column walk, like the
paper's TB-CM0 at scale), computes its window-based entropy profile,
locates the valley, and shows how each mapping scheme transforms the
profile — an ASCII rendition of the paper's Figures 5 and 10.

Run:  python examples/entropy_analysis.py
"""

import numpy as np

from repro.core import (
    SCHEME_NAMES,
    find_entropy_valleys,
    hynix_gddr5_map,
)
from repro.registry import make_scheme
from repro.core.entropy import application_entropy_profile
from repro.workloads import KernelTrace, Workload
from repro.workloads.patterns import banded_rows, column_walk, make_tb


def build_custom_workload() -> Workload:
    """A column-walking kernel: each TB reads one 128 B column of a
    4 KB-pitch matrix inside its own 1 MB row band."""
    tbs = []
    for band in range(64):
        rows = banded_rows(4096, band, count=13)
        txns = column_walk(0, 4096, rows, col_byte=256)
        tbs.append(make_tb(band, txns, reqs_per_warp=8, gap=4))
    kernel = KernelTrace("column_walk", tuple(tbs))
    return Workload("Custom column walk", "CUSTOM", (kernel,),
                    instructions_per_request=80)


def ascii_profile(values, amap, width=50) -> str:
    """Render bits 29..6 as a bar chart line per bit group."""
    lines = []
    parallel = set(amap.parallel_bits())
    for bit in sorted(amap.non_block_bits(), reverse=True):
        bar = "#" * int(round(values[bit] * width))
        marker = " <- channel/bank" if bit in parallel else ""
        lines.append(f"  bit {bit:2d} |{bar:<{width}}|{marker}")
    return "\n".join(lines)


def main() -> None:
    amap = hynix_gddr5_map()
    workload = build_custom_workload()
    profile = application_entropy_profile(
        workload.entropy_kernel_inputs(), amap, window=12, label="custom"
    )
    print("window-based entropy of the custom workload (w = 12):\n")
    print(ascii_profile(profile.values, amap))
    print(f"\nvalleys: {find_entropy_valleys(profile)}")

    print("\nchannel/bank-bit entropy after each mapping scheme:")
    addresses = [tb.addresses for tb in workload.kernels[0].tbs]
    for name in SCHEME_NAMES:
        scheme = make_scheme(name, amap, seed=0)
        mapped = [(np.atleast_1d(scheme.map(a))) for a in addresses]
        mapped_profile = application_entropy_profile(
            [(mapped, workload.n_requests)], amap, window=12
        )
        print(f"  {name:5s}: {mapped_profile.parallel_bit_entropy():.3f}")


if __name__ == "__main__":
    main()
