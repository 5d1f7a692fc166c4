"""Workload trace import/export.

Downstream users will want to run *their own* traces through the
simulator (e.g. captured from a real profiler) and to archive the
synthetic suites used in a paper run.  This module round-trips a
:class:`~repro.workloads.base.Workload` through a single compressed
``.npz`` file.

Layout: every TB's columns are concatenated into flat ``gaps`` /
``addresses`` / ``writes`` arrays plus per-warp index tables
``warp_kernel`` / ``warp_tb`` / ``warp_lengths`` giving each warp's
kernel index, TB id and op count, in op order.  That is the in-memory
layout too (a :class:`~repro.workloads.base.TBTrace` is a TB's cut of
the columns), so saving concatenates and loading slices: a
million-request workload is a handful of numpy arrays rather than a
pickle of nested objects (fast, portable, and safe to load).
"""

from __future__ import annotations

import json
from typing import List

import numpy as np

from .base import KernelTrace, TBTrace, Workload

__all__ = ["save_workload", "load_workload"]

_FORMAT_VERSION = 1


def save_workload(workload: Workload, path) -> None:
    """Serialize *workload* to a compressed ``.npz`` file."""
    tbs = [tb for kernel in workload.kernels for tb in kernel.tbs]
    warp_kernel = [
        k_index
        for k_index, kernel in enumerate(workload.kernels)
        for tb in kernel.tbs for _ in range(tb.n_warps)
    ]
    header = {
        "version": _FORMAT_VERSION,
        "name": workload.name,
        "abbreviation": workload.abbreviation,
        "instructions_per_request": workload.instructions_per_request,
        "expected_valley": workload.expected_valley,
        "description": workload.description,
        "kernel_names": [kernel.name for kernel in workload.kernels],
        "metadata": {
            key: (list(value) if isinstance(value, tuple) else value)
            for key, value in workload.metadata.items()
        },
    }
    np.savez_compressed(
        path,
        header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
        gaps=np.concatenate([tb.gaps for tb in tbs]),
        addresses=np.concatenate([tb.addresses for tb in tbs]),
        writes=np.concatenate([tb.writes for tb in tbs]),
        warp_kernel=np.asarray(warp_kernel, dtype=np.int64),
        warp_tb=np.repeat(
            np.asarray([tb.tb_id for tb in tbs], dtype=np.int64),
            [tb.n_warps for tb in tbs],
        ),
        warp_lengths=np.concatenate(
            [np.diff(tb.warp_ends, prepend=0) for tb in tbs]
        ),
    )


def load_workload(path) -> Workload:
    """Rebuild a workload written by :func:`save_workload`.

    The index tables must tile the columns: a negative warp length,
    lengths that do not sum to the op count or a kernel index out of
    range raise :class:`ValueError` naming the field.  Warps are
    grouped by (kernel, TB id), keeping file order inside a TB, and
    the trace invariants (TB ordering, array consistency) are
    re-validated by the normal constructors.
    """
    with np.load(path) as data:
        header = json.loads(bytes(data["header"]).decode())
        if header.get("version") != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported workload file version {header.get('version')!r}"
            )
        gaps = data["gaps"]
        addresses = data["addresses"]
        writes = data["writes"]
        warp_kernel = data["warp_kernel"]
        warp_tb = data["warp_tb"]
        warp_lengths = data["warp_lengths"]

    kernel_names = header["kernel_names"]
    n_ops = len(addresses)
    if not len(gaps) == len(writes) == n_ops:
        raise ValueError(
            f"trace columns disagree on length: addresses {n_ops}, "
            f"gaps {len(gaps)}, writes {len(writes)}"
        )
    if not len(warp_kernel) == len(warp_tb) == len(warp_lengths):
        raise ValueError(
            f"warp tables disagree on length: warp_kernel "
            f"{len(warp_kernel)}, warp_tb {len(warp_tb)}, warp_lengths "
            f"{len(warp_lengths)}"
        )
    if (warp_lengths < 0).any():
        raise ValueError("warp_lengths holds a negative length")
    if int(warp_lengths.sum()) != n_ops:
        raise ValueError(
            f"warp_lengths sum to {int(warp_lengths.sum())}, but the "
            f"columns hold {n_ops} ops"
        )
    if ((warp_kernel < 0) | (warp_kernel >= len(kernel_names))).any():
        raise ValueError(
            f"warp_kernel holds an index outside the "
            f"{len(kernel_names)} kernel(s)"
        )

    # Stable sort of the warps by (kernel, TB id), then the ops they own.
    order = np.lexsort((warp_tb, warp_kernel))
    warp_kernel, warp_tb = warp_kernel[order], warp_tb[order]
    old_starts = (np.cumsum(warp_lengths) - warp_lengths)[order]
    warp_lengths = warp_lengths[order]
    ends = np.cumsum(warp_lengths)
    ops = np.arange(n_ops) + np.repeat(
        old_starts - (ends - warp_lengths), warp_lengths
    )
    gaps, addresses, writes = gaps[ops], addresses[ops], writes[ops]

    first = np.ones(len(order), dtype=bool)  # a warp that starts a TB
    first[1:] = ((warp_kernel[1:] != warp_kernel[:-1])
                 | (warp_tb[1:] != warp_tb[:-1]))
    bounds = np.append(np.flatnonzero(first), len(order)).tolist()
    per_kernel: List[List[TBTrace]] = [[] for _ in kernel_names]
    for lo, hi in zip(bounds, bounds[1:]):
        op_lo = int(ends[lo] - warp_lengths[lo])
        op_hi = int(ends[hi - 1])
        per_kernel[int(warp_kernel[lo])].append(TBTrace(
            int(warp_tb[lo]), addresses[op_lo:op_hi], gaps[op_lo:op_hi],
            writes[op_lo:op_hi], ends[lo:hi] - op_lo,
        ))
    return Workload(
        name=header["name"],
        abbreviation=header["abbreviation"],
        kernels=tuple(
            KernelTrace(name, tuple(tbs))
            for name, tbs in zip(kernel_names, per_kernel)
        ),
        instructions_per_request=header["instructions_per_request"],
        expected_valley=header["expected_valley"],
        description=header.get("description", ""),
        metadata=header.get("metadata", {}),
    )
