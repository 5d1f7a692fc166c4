"""Runtime warp and thread-block state.

These classes wrap the immutable workload traces
(:mod:`repro.workloads.base`) with the mutable per-run state the
simulator needs: the per-warp program counter and the *pre-mapped*
per-request DRAM coordinates.

Mapping is applied once per kernel, vectorized, when the kernel is
prepared (see the system's ``_prepare_kernel``): every request's
mapped line address, channel, bank, row, LLC slice, and the line's set
index in the L1 and in its LLC slice are precomputed, so the hot
simulation path does no BIM math and no set hashing at all.  This is
behaviourally identical to mapping at issue time because the BIM and
the set hash are stateless.  The result is nine kernel-wide per-op
lists holding every TB's columns back to back.  A warp shares them and
owns the range ``[op, end)``, as it owns a range of its TB's columns
in the trace (``TBTrace.warp_ends``), so a run allocates per kernel,
not per warp.  A warp refers to its TB weakly, so no reference cycle
keeps a finished run's contexts waiting for the cycle collector.
"""

from __future__ import annotations

import weakref
from typing import Callable, List, Optional, Sequence, Tuple

from ..workloads.base import TBTrace

__all__ = ["WarpContext", "TBContext"]


class WarpContext:
    """One warp's execution state: its kernel's op lists + a cursor.

    The per-op fields (``gaps``/``writes``/``lines``/...) are the
    kernel-wide lists, indexed as native Python scalars in the issue
    hot loop; this warp's ops are ``[op, end)`` of them, and ``op``
    starts at the warp's offset in the kernel.
    """

    __slots__ = (
        "tb_ref", "warp_id", "gaps", "writes", "lines", "channels", "banks",
        "rows", "slices", "l1_sets", "llc_sets", "op", "end",
        "outstanding", "issue_pending", "ready_at", "retired",
    )

    def __init__(
        self, tb_ref: "weakref.ref[TBContext]", warp_id: int,
        ops: Sequence[list], start: int, end: int,
    ) -> None:
        self.tb_ref = tb_ref
        self.warp_id = warp_id
        (self.gaps, self.writes, self.lines, self.channels, self.banks,
         self.rows, self.slices, self.l1_sets, self.llc_sets) = ops
        self.op = start  # next op to issue
        self.end = end  # one past this warp's last op
        self.outstanding = 0  # issued but not yet completed
        self.issue_pending = False  # an issue event is scheduled
        self.ready_at = 0  # cycle the warp last became port-ready
        self.retired = False  # warp_finished() has fired (exactly once)

    @property
    def issued_all(self) -> bool:
        return self.op >= self.end

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
        completion); an auto-fidelity freeze can move the op
        cursor past the end while stale issue events are still in
        flight, each of which then checks for retirement — this guard
        keeps the transition one-shot.
        """
        if not self.retired and self.done:
            self.retired = True
            self.tb_ref().warp_finished()

    def fast_forward_middle(self, keep_last: int) -> Tuple[list, list, list, list, list, list]:
        """Skip remaining ops except the last *keep_last*, returning them.

        The freeze path of auto fidelity: the cursor jumps from ``op``
        to ``end - keep_last`` and the skipped ops' pre-translated
        fields come back as ``(lines, channels, banks, rows, slices,
        writes)`` list slices for functional replay — they are never
        issued on the engine.  A kept tail issues normally, so the
        end-of-kernel drain is simulated in full detail;
        ``keep_last=0`` skips every remaining op.  Mid-flight cursor
        moves are safe: the SM's issue path re-reads ``op`` on every
        event, treats a cursor at the end as "nothing left to issue"
        and retires the warp through :meth:`maybe_retire`.  With
        ``keep_last`` at or above the remaining count nothing is
        skipped.
        """
        start = self.op
        end = self.op = max(start, self.end - max(0, keep_last))
        return tuple(field[start:end] for field in (
            self.lines, self.channels, self.banks, self.rows, self.slices,
            self.writes,
        ))

    def __repr__(self) -> str:
        return f"WarpContext(warp={self.warp_id}, ops=[{self.op}, {self.end}))"


class TBContext:
    """One Thread Block in flight on an SM."""

    __slots__ = (
        "trace", "tb_id", "kernel_index", "warps", "n_warps",
        "remaining_warps", "sm_id", "on_done", "__weakref__",
    )

    def __init__(
        self, trace: TBTrace, kernel_index: int, ops: Sequence[list],
        start: int = 0,
    ) -> None:
        """*ops* are the kernel's nine per-op lists ``(gaps, writes,
        lines, channels, banks, rows, slices, l1_sets, llc_sets)`` and
        *start* the offset of this TB's first op in them; warp *w*
        owns the range the trace's ``warp_ends`` give it, shifted by
        *start*.  The raw *trace* stays on the context: a frozen kernel
        replays its still-queued TBs from their traces.
        """
        self.trace = trace
        self.tb_id = trace.tb_id
        self.kernel_index = kernel_index
        ref = weakref.ref(self)
        warps: List[WarpContext] = []
        remaining = 0
        base = start
        for warp_id, end in enumerate(trace.warp_ends.tolist()):
            end += base
            warps.append(WarpContext(ref, warp_id, ops, start, end))
            remaining += end > start
            start = end
        self.warps = warps
        self.n_warps = len(warps)
        self.remaining_warps = remaining
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
