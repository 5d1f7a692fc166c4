"""Workload trace model.

The simulator is trace-driven: a workload is a sequence of kernels,
a kernel a sequence of Thread Blocks (TBs), a TB a set of warps, and
a warp an ordered stream of *coalesced* memory transactions with
per-transaction compute gaps (cycles of non-memory work preceding the
request).  This mirrors the paper's methodology: entropy is computed
from the per-TB request addresses, and the TB scheduler issues TBs in
identifier order.

The TB is the unit of storage.  A :class:`TBTrace` holds all its ops
as three columns (``addresses``, ``gaps``, ``writes``) plus each
warp's end offset in them; a warp owns a range of its TB's columns
and has no object of its own.  This is the layout of the ``.npz``
trace files (:mod:`repro.workloads.io`), cut at TB boundaries.

Address convention: transaction addresses are 128-byte aligned input
(pre-mapping) physical addresses in the 30-bit space of the Hynix map
(or the 32-bit stacked space).  Compute intensity is captured by the
gaps plus each workload's ``instructions_per_request``, which is
calibrated against the paper's Table II APKI column
(instructions_per_request = 1000 / APKI).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

__all__ = ["TBTrace", "KernelTrace", "Workload"]


@dataclass(frozen=True, slots=True)
class TBTrace:
    """One Thread Block: its identifier and its ops as columns.

    Op *i* is a coalesced transaction at ``addresses[i]`` preceded by
    ``gaps[i]`` cycles of compute; ``writes[i]`` marks a store
    (fire-and-forget in the pipeline model).  Warp *w* owns ops
    ``[warp_ends[w - 1], warp_ends[w])`` (from 0 for the first warp),
    so a warp may be empty and every op belongs to one warp.
    """

    tb_id: int
    addresses: np.ndarray
    gaps: np.ndarray
    writes: np.ndarray
    warp_ends: np.ndarray

    def __post_init__(self) -> None:
        addresses = np.ascontiguousarray(self.addresses, dtype=np.uint64)
        gaps = np.ascontiguousarray(self.gaps, dtype=np.int64)
        writes = np.ascontiguousarray(self.writes, dtype=bool)
        ends = np.ascontiguousarray(self.warp_ends, dtype=np.int64)
        n = len(addresses)
        if not len(gaps) == len(writes) == n:
            raise ValueError(
                f"TB {self.tb_id} columns disagree on length: "
                f"{n}/{len(gaps)}/{len(writes)}"
            )
        if n and gaps.min() < 0:
            raise ValueError("compute gaps must be non-negative")
        if not len(ends):
            raise ValueError(f"TB {self.tb_id} has no warps")
        if ends[0] < 0 or (ends[1:] < ends[:-1]).any() or ends[-1] != n:
            raise ValueError(
                f"TB {self.tb_id} warp ends must be non-decreasing and "
                f"end at its {n} ops"
            )
        object.__setattr__(self, "addresses", addresses)
        object.__setattr__(self, "gaps", gaps)
        object.__setattr__(self, "writes", writes)
        object.__setattr__(self, "warp_ends", ends)

    @property
    def n_warps(self) -> int:
        return len(self.warp_ends)

    @property
    def n_requests(self) -> int:
        return len(self.addresses)


@dataclass(frozen=True)
class KernelTrace:
    """One kernel launch: TBs in identifier (issue) order."""

    name: str
    tbs: Tuple[TBTrace, ...]

    def __post_init__(self) -> None:
        tbs = tuple(self.tbs)
        if not tbs:
            raise ValueError(f"kernel {self.name!r} has no TBs")
        ids = [tb.tb_id for tb in tbs]
        if ids != sorted(ids) or len(set(ids)) != len(ids):
            raise ValueError(f"kernel {self.name!r} TB ids must be unique and ascending")
        object.__setattr__(self, "tbs", tbs)

    @property
    def n_tbs(self) -> int:
        return len(self.tbs)

    @property
    def n_requests(self) -> int:
        return sum(tb.n_requests for tb in self.tbs)

    def tb_address_arrays(self) -> List[np.ndarray]:
        """Per-TB address arrays in TB order (window-entropy input)."""
        return [tb.addresses for tb in self.tbs]


@dataclass(frozen=True)
class Workload:
    """A complete GPU-compute application trace.

    Attributes
    ----------
    name / abbreviation:
        Full and short benchmark names (Table II).
    kernels:
        Kernel traces in launch order; kernels execute back-to-back
        with a barrier between them (TBs of different kernels never
        co-execute, paper Section III-A).
    instructions_per_request:
        Dynamic instructions per memory request — 1000/APKI from
        Table II.  Drives the GPU dynamic power estimate.
    expected_valley:
        Whether the paper classifies the benchmark as having an
        entropy valley overlapping the channel/bank bits (the top ten
        rows of Table II) — used by validation tests.
    """

    name: str
    abbreviation: str
    kernels: Tuple[KernelTrace, ...]
    instructions_per_request: float = 100.0
    expected_valley: bool = True
    description: str = ""
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "kernels", tuple(self.kernels))
        if not self.kernels:
            raise ValueError(f"workload {self.name!r} has no kernels")
        if self.instructions_per_request <= 0:
            raise ValueError("instructions_per_request must be positive")

    @property
    def n_kernels(self) -> int:
        return len(self.kernels)

    @property
    def n_tbs(self) -> int:
        return sum(k.n_tbs for k in self.kernels)

    @property
    def n_requests(self) -> int:
        return sum(k.n_requests for k in self.kernels)

    @property
    def approx_instructions(self) -> float:
        """Estimated dynamic instruction count (for APKI / power math)."""
        return self.n_requests * self.instructions_per_request

    @property
    def apki(self) -> float:
        """Memory accesses per kilo-instruction implied by the trace."""
        return 1000.0 / self.instructions_per_request

    def entropy_kernel_inputs(self) -> List[Tuple[List[np.ndarray], int]]:
        """Kernel inputs for application_entropy_profile: (TB arrays, weight)."""
        return [(k.tb_address_arrays(), k.n_requests) for k in self.kernels]

    def __repr__(self) -> str:
        return (
            f"Workload({self.abbreviation!r}, kernels={self.n_kernels}, "
            f"tbs={self.n_tbs}, requests={self.n_requests})"
        )
