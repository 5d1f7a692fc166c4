"""Runtime warp and thread-block state.

These classes wrap the immutable workload traces
(:mod:`repro.workloads.base`) with the mutable per-run state the
simulator needs: the per-warp program counter and the *pre-mapped*
per-request DRAM coordinates.

Mapping is applied once, vectorized, when a :class:`TBContext` is
prepared (see the system's ``_prepare_kernel``): every request's
mapped line address, channel, bank, row, LLC slice, and the line's set
index in the L1 and in its LLC slice are precomputed, so the hot
simulation path does no BIM math and no set hashing at all.  This is
behaviourally identical to mapping at issue time because the BIM and
the set hash are stateless.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from ..workloads.base import TBTrace, WarpTrace

__all__ = ["WarpContext", "TBContext"]


def _as_list(values) -> list:
    """Materialize a per-op field as a plain Python list.

    The simulator indexes these one element at a time on its hottest
    path; list indexing returns native ints/bools directly, where numpy
    scalar extraction costs ~100ns per element.  The conversion is one
    vectorized pass at TB-preparation time.  A list is taken as is (the
    per-op fields are never mutated).
    """
    if type(values) is list:
        return values
    tolist = getattr(values, "tolist", None)
    return tolist() if tolist is not None else list(values)


class WarpContext:
    """One warp's execution state: trace arrays + program counter.

    Per-op fields (``gaps``/``writes``/``lines``/...) are list-backed:
    prepared once from the vectorized trace arrays, then indexed as
    native Python scalars in the issue hot loop.
    """

    __slots__ = (
        "tb", "warp_id", "gaps", "writes", "lines", "channels", "banks",
        "rows", "slices", "l1_sets", "llc_sets", "op", "n_ops",
        "outstanding", "issue_pending", "ready_at", "retired",
    )

    def __init__(
        self,
        tb: "TBContext",
        warp_id: int,
        trace: WarpTrace,
        lines: np.ndarray,
        channels: np.ndarray,
        banks: np.ndarray,
        rows: np.ndarray,
        slices: np.ndarray,
        l1_sets: np.ndarray,
        llc_sets: np.ndarray,
    ) -> None:
        self.tb = tb
        self.warp_id = warp_id
        self.gaps = _as_list(trace.gaps)
        self.writes = _as_list(trace.writes)
        self.lines = _as_list(lines)
        self.channels = _as_list(channels)
        self.banks = _as_list(banks)
        self.rows = _as_list(rows)
        self.slices = _as_list(slices)
        self.l1_sets = _as_list(l1_sets)
        self.llc_sets = _as_list(llc_sets)
        self.op = 0  # next op to issue
        self.n_ops = len(trace)
        self.outstanding = 0  # issued but not yet completed
        self.issue_pending = False  # an issue event is scheduled
        self.ready_at = 0  # cycle the warp last became port-ready
        self.retired = False  # warp_finished() has fired (exactly once)

    @property
    def issued_all(self) -> bool:
        return self.op >= self.n_ops

    @property
    def done(self) -> bool:
        return self.issued_all and self.outstanding == 0

    def advance(self) -> None:
        """Move past the current request (it has been issued)."""
        if self.issued_all:
            raise RuntimeError(f"warp {self.warp_id} advanced past its last request")
        self.op += 1

    def maybe_retire(self) -> None:
        """Fire ``tb.warp_finished()`` exactly once, when done.

        In exact mode retirement has a single trigger (the last
        completion); a sampled-fidelity fast-forward can move the op
        cursor past the end while stale issue events are still in
        flight, each of which then checks for retirement — this guard
        keeps the transition one-shot.
        """
        if not self.retired and self.done:
            self.retired = True
            self.tb.warp_finished()

    def fast_forward_middle(self, keep_last: int) -> Tuple[list, list, list, list, list, list]:
        """Skip remaining ops except the last *keep_last*, returning them.

        The freeze path of sampled and auto fidelity: the cursor jumps
        from ``op`` to ``n_ops - keep_last`` and the skipped ops'
        pre-translated fields come back as ``(lines, channels, banks,
        rows, slices, writes)`` list slices for functional replay —
        they are never issued on the engine.  A kept tail issues
        normally, so the end-of-kernel drain is simulated in full
        detail; ``keep_last=0`` skips every remaining op.  Mid-flight
        cursor moves are safe: the SM's issue path re-reads ``op`` on
        every event, treats a cursor at the end as "nothing left to
        issue" and retires the warp through :meth:`maybe_retire`.
        With ``keep_last`` at or above the remaining count nothing is
        skipped.
        """
        start = self.op
        end = max(start, self.n_ops - max(0, keep_last))
        self.op = end
        return (
            self.lines[start:end],
            self.channels[start:end],
            self.banks[start:end],
            self.rows[start:end],
            self.slices[start:end],
            self.writes[start:end],
        )

    def __repr__(self) -> str:
        return (
            f"WarpContext(tb={self.tb.tb_id}, warp={self.warp_id}, "
            f"op={self.op}/{self.n_ops})"
        )


class TBContext:
    """One Thread Block in flight on an SM."""

    __slots__ = (
        "trace", "tb_id", "kernel_index", "warps", "n_warps",
        "remaining_warps", "sm_id", "on_done",
    )

    def __init__(
        self,
        trace: TBTrace,
        kernel_index: int,
        prepare: Callable[[WarpTrace], tuple],
    ) -> None:
        """*prepare* maps a warp trace to its precomputed per-op arrays.

        It returns ``(lines, channels, banks, rows, slices, l1_sets,
        llc_sets)`` — see the system's trace preparation for the
        vectorized BIM apply and set hashing.  The raw *trace* stays
        on the context: a frozen kernel replays its still-queued TBs
        from their traces.
        """
        self.trace = trace
        self.tb_id = trace.tb_id
        self.kernel_index = kernel_index
        self.warps: List[WarpContext] = [
            WarpContext(self, warp_id, warp_trace, *prepare(warp_trace))
            for warp_id, warp_trace in enumerate(trace.warps)
        ]
        self.n_warps = len(self.warps)
        self.remaining_warps = sum(1 for w in self.warps if w.n_ops) or 0
        self.sm_id: Optional[int] = None
        self.on_done: Optional[Callable[["TBContext"], None]] = None

    @property
    def done(self) -> bool:
        return self.remaining_warps == 0

    def warp_finished(self) -> None:
        """Called by the SM when one of this TB's warps retires."""
        if self.remaining_warps <= 0:
            raise RuntimeError(f"TB {self.tb_id} has no running warps to finish")
        self.remaining_warps -= 1
        if self.remaining_warps == 0 and self.on_done is not None:
            self.on_done(self)

    def __repr__(self) -> str:
        return (
            f"TBContext(tb={self.tb_id}, kernel={self.kernel_index}, "
            f"remaining_warps={self.remaining_warps})"
        )
