"""The address mapper's decode half: mapped addresses to DRAM coordinates.

In hardware the BIM sits directly after the memory coalescer
(paper Section IV) and is a fixed-function XOR tree (Fig. 7).  Here a
:class:`~repro.core.schemes.MappingScheme` maps whole request arrays
(``scheme.map``) and :func:`decode_fields` decodes the mapped
addresses into DRAM coordinates (channel, bank, row, column, ...) in
one vectorized pass.  The tree's cost is the scheme's
``bim.xor_gate_count()`` / ``bim.xor_tree_depth()`` and its
``extra_latency_cycles``.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Tuple

import numpy as np

from .address_map import AddressMap

__all__ = ["decode_fields", "dram_channels"]

# Per-map decode plans: field name -> [(src_shift, mask, dst_shift)].
# Keyed weakly so long-lived processes (sweep workers) do not pin maps.
_DECODE_PLANS: "weakref.WeakKeyDictionary[AddressMap, List[Tuple[str, List[Tuple[np.uint64, np.uint64, np.uint64]]]]]" = (
    weakref.WeakKeyDictionary()
)


def _decode_plan(address_map: AddressMap):
    """Decompose every field into maximal contiguous bit runs.

    A field whose physical bits are consecutive (which covers almost
    every run of every real map) then decodes with a single
    shift-and-mask instead of one numpy pass per bit.
    """
    plan = _DECODE_PLANS.get(address_map)
    if plan is not None:
        return plan
    plan = []
    for name in address_map.field_names:
        bits = address_map.field(name).bits
        runs: List[Tuple[np.uint64, np.uint64, np.uint64]] = []
        start = 0
        for i in range(1, len(bits) + 1):
            if i == len(bits) or bits[i] != bits[i - 1] + 1:
                length = i - start
                runs.append((
                    np.uint64(bits[start]),           # source shift
                    np.uint64((1 << length) - 1),     # mask after shift
                    np.uint64(start),                 # destination shift
                ))
                start = i
        plan.append((name, runs))
    _DECODE_PLANS[address_map] = plan
    return plan


def decode_fields(address_map: AddressMap, addresses: np.ndarray) -> Dict[str, np.ndarray]:
    """Vectorized field extraction for an array of addresses.

    Returns one int64 array per field of *address_map*, each entry the
    field's value for the corresponding address.
    """
    addr = np.asarray(addresses, dtype=np.uint64)
    out: Dict[str, np.ndarray] = {}
    for name, runs in _decode_plan(address_map):
        if not runs:  # zero-width field: its value is always 0
            out[name] = np.zeros(addr.shape, dtype=np.int64)
            continue
        src_shift, mask, dst_shift = runs[0]
        value = ((addr >> src_shift) & mask) << dst_shift
        for src_shift, mask, dst_shift in runs[1:]:
            value |= ((addr >> src_shift) & mask) << dst_shift
        out[name] = value.astype(np.int64)
    return out


def dram_channels(address_map: AddressMap, fields: Dict[str, np.ndarray]) -> np.ndarray:
    """Controller index per address from its :func:`decode_fields` *fields*.

    A conventional map has a ``channel`` field; on a stacked one each
    (stack, vault) pair has its own controller, ``stack * vaults +
    vault``.
    """
    if "channel" in address_map:
        return fields["channel"]
    return fields["stack"] * address_map.field("vault").size + fields["vault"]
