"""Global Thread Block scheduler.

TBs are issued to SMs strictly in identifier order, as many at a time
as SM resources allow (TB slots and warp capacity).  This produces the
paper's concurrency *window*: at any instant the TBs in flight form a
contiguous run of identifiers, which is exactly the assumption behind
the window-based entropy metric.

Kernels execute sequentially: the next kernel's TBs are only released
once every TB of the current kernel has retired (paper Section III-A:
"the TBs of different kernels do not execute concurrently").
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional

from .sm import SM
from .thread_block import TBContext

__all__ = ["TBScheduler"]


class TBScheduler:
    """Dispatches TBs to SMs in ID order and tracks kernel completion."""

    def __init__(self, sms: List[SM], on_kernel_done: Callable[[], None]) -> None:
        if not sms:
            raise ValueError("need at least one SM")
        self._sms = sms
        self._on_kernel_done = on_kernel_done
        self._queue: Deque[TBContext] = deque()
        self._in_flight = 0
        self._kernel_loaded = False
        self._dispatching = False
        self.tbs_dispatched = 0
        self.max_in_flight = 0
        for sm in sms:
            sm.on_tb_done = self._tb_done

    @property
    def in_flight(self) -> int:
        return self._in_flight

    @property
    def pending(self) -> int:
        return len(self._queue)

    @property
    def idle(self) -> bool:
        return not self._queue and self._in_flight == 0

    def load_kernel(self, tbs: List[TBContext]) -> None:
        """Release a kernel's TBs for dispatch (must be idle)."""
        if not self.idle:
            raise RuntimeError("cannot load a kernel while TBs are in flight")
        if not tbs:
            raise ValueError("kernel has no TBs")
        self._queue = deque(tbs)
        self._kernel_loaded = True
        self._dispatch()
        self._check_kernel_done()

    def _dispatch(self) -> None:
        """Assign queued TBs (in order) to any SM with room.

        Dispatch is strict in-order: if the next TB fits nowhere, later
        TBs wait too — GPUs do not skip ahead in the TB stream.  An
        empty TB retires inside its own ``assign_tb``; this loop then
        goes on with the next TB rather than ``_tb_done`` dispatching
        it one frame deeper, so a run of empty TBs never nests.
        """
        self._dispatching = True
        while self._queue:
            tb = self._queue[0]
            sm = self._pick_sm(tb)
            if sm is None:
                break
            self._queue.popleft()
            self._in_flight += 1
            self.tbs_dispatched += 1
            self.max_in_flight = max(self.max_in_flight, self._in_flight)
            sm.assign_tb(tb)
        self._dispatching = False

    def _check_kernel_done(self) -> None:
        """Fire the kernel-done callback when nothing is left to run.

        Factored out of ``_tb_done`` so ``load_kernel`` can share it:
        a kernel whose TBs all complete synchronously during dispatch
        (e.g. every TB empty) finishes without any completion event.
        """
        if not self._queue and self._in_flight == 0 and self._kernel_loaded:
            self._kernel_loaded = False
            self._on_kernel_done()

    def take_pending(self, keep_last: int = 0) -> List[TBContext]:
        """Remove and return the not-yet-dispatched TBs.

        The auto-fidelity freeze path: the caller replays these TBs
        functionally instead of letting them dispatch.  With
        ``keep_last`` > 0 the final that-many TBs stay queued for
        normal detailed dispatch (skip-middle freeze), so the kernel's
        tail still runs through the SMs.  The kernel completes
        normally either way — in-flight and kept TBs retire through
        the usual completion path.
        """
        keep_last = max(0, keep_last)
        if keep_last >= len(self._queue):
            return []
        cut = len(self._queue) - keep_last
        return [self._queue.popleft() for _ in range(cut)]

    def detach(self) -> None:
        """Drop the kernel-done hook into the machine once the run is over."""
        self._on_kernel_done = None

    def _pick_sm(self, tb: TBContext) -> Optional[SM]:
        """Least-loaded SM that can accept *tb* (round-robin on ties)."""
        best: Optional[SM] = None
        for sm in self._sms:
            if not sm.can_accept(tb):
                continue
            if best is None or sm.warp_count < best.warp_count:
                best = sm
        return best

    def _tb_done(self, tb: TBContext) -> None:
        self._in_flight -= 1
        if self._in_flight < 0:
            raise RuntimeError("TB completion underflow")
        if self._dispatching:
            return  # the dispatch loop on the stack carries on
        if self._queue:
            self._dispatch()
        self._check_kernel_done()
