#!/usr/bin/env python3
"""Define your own mapping scheme and sweep it against the paper's.

Two ways to open the closed world, both through the stable
``repro.api`` facade:

1. a **serializable spec** — an XOR/permutation stage pipeline
   (``SchemeSpec.stages``) that lives happily in a JSON file and runs
   through ``repro sweep --spec``, caching/sharding/merging exactly
   like a built-in scheme;
2. a **registered builder** — a ``@register_scheme`` function, the
   same registry the six paper schemes live in (listed by
   ``repro schemes``).

Run:  python examples/custom_scheme.py
Env:  REPRO_EXAMPLE_SCALE (default 0.25) sizes the traces.
"""

import os

from repro import api
from repro.analysis.report import format_table
from repro.core.bim import BinaryInvertibleMatrix
from repro.core.schemes import MappingScheme
from repro.registry import register_scheme
from repro.specs import SchemeSpec

SCALE = float(os.environ.get("REPRO_EXAMPLE_SCALE", "0.25"))


# Way 1: a stage pipeline — XOR two high (row) bits into channel bit 8,
# then swap bank bit 9 with row bit 22.  Self-describing: the spec's
# canonical JSON *is* its cache identity.
XSTAGE = SchemeSpec.stages("XSTAGE", [
    {"op": "xor", "target": 8, "sources": [20, 24]},
    {"op": "swap", "a": 9, "b": 22},
])


# Way 2: a registered builder — harvest only the row bits into the
# channel/bank bits (a narrower PAE).  Cache identity is the name.
# In-process registration covers serial runs (and fork-based pools on
# Linux); for portable multi-process sweeps use a spec like XSTAGE
# above, which is self-describing and needs no registration.
@register_scheme("ROWHARVEST")
def row_harvest(address_map, seed=0):
    """Broad scheme fed exclusively by row-address bits."""
    from repro.core.schemes import broad_scheme

    return broad_scheme(
        "ROWHARVEST", address_map,
        input_bits=tuple(address_map.field("row").bits) + address_map.parallel_bits(),
        output_bits=address_map.parallel_bits(),
        seed=seed,
    )


def main() -> None:
    print(f"spec JSON for {XSTAGE.name}:\n  {XSTAGE.to_dict()}\n")

    report = api.sweep(
        benchmarks=["SP", "MT"],
        schemes=["PM", "PAE", XSTAGE, "ROWHARVEST"],
        scale=SCALE,
    )
    speedups = report["derived"]["speedup"]
    benchmarks = report["grid"]["benchmarks"]
    rows = [
        [scheme] + [speedups[scheme][b] for b in benchmarks]
        for scheme in sorted(speedups)
    ]
    print(format_table(
        ["scheme"] + [f"{b} speedup" for b in benchmarks],
        rows, floatfmt="{:.2f}",
    ))
    print(
        "\nBoth custom schemes ran through the same sweep/cache/report\n"
        "machinery as the paper's six — try:\n"
        "  python -m repro sweep --benchmarks SP --schemes PAE,@my_spec.json"
    )


if __name__ == "__main__":
    main()
