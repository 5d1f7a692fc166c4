"""DRAM bank state machine.

A bank is either *precharged* (no open row) or *active* with one row
latched in its row buffer.  Accessing a row that is already open is a
**row hit** and only pays the column latency.  Accessing with the bank
precharged is a **row miss** (activate first, tRCD).  Accessing while
a *different* row is open is a **row conflict**: the open page must be
precharged (respecting tRAS since its activation), reactivated, and
only then read — the expensive case that load imbalance multiplies and
that the paper's activate-power results hinge on.

The bank tracks when it can next accept a command and counts every
outcome category for the row-buffer hit rate (Fig. 15) and the
activate-power component (Fig. 16).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from .timing import DRAMTiming

__all__ = ["Bank", "AccessKind"]


class AccessKind:
    """Row-buffer outcome categories."""

    HIT = "hit"
    MISS = "miss"  # bank was precharged
    CONFLICT = "conflict"  # different row was open

    ALL = (HIT, MISS, CONFLICT)


@dataclass
class Bank:
    """One DRAM bank: row-buffer state, timing bookkeeping and counters."""

    timing: DRAMTiming
    open_row: Optional[int] = None
    ready_at: int = 0
    activated_at: int = -(10**9)
    activates: int = 0
    precharges: int = 0
    row_hits: int = 0
    row_misses: int = 0
    row_conflicts: int = 0

    def pending_kind(self, row: int) -> str:
        """Classify what accessing *row* right now would be."""
        if self.open_row is None:
            return AccessKind.MISS
        if self.open_row == row:
            return AccessKind.HIT
        return AccessKind.CONFLICT

    @property
    def accesses(self) -> int:
        return self.row_hits + self.row_misses + self.row_conflicts

    def row_hit_rate(self) -> float:
        """Fraction of accesses served from the open row buffer."""
        return self.row_hits / self.accesses if self.accesses else 0.0

    def access(self, row: int, now: int, earliest_activate: int = 0) -> Tuple[int, str]:
        """Issue the command sequence to read/write *row*.

        Returns ``(column_command_time, kind)``: the cycle at which the
        column (read/write) command fires, and the row-buffer outcome.
        *earliest_activate* carries channel-level activate constraints
        (tRRD/tFAW): if this access needs an ACT, the ACT is delayed to
        at least that cycle.  The caller is responsible for data-bus
        arbitration and for spacing the *next* command via
        :meth:`occupy_until`.
        """
        t = self.timing
        ready_at = self.ready_at
        start = now if now > ready_at else ready_at
        open_row = self.open_row
        # Classified inline (pending_kind's cases, in its order).
        if open_row is None:
            activate_at = start if start > earliest_activate else earliest_activate
            self.row_misses += 1
            kind = AccessKind.MISS
        elif open_row == row:
            self.row_hits += 1
            return start, AccessKind.HIT
        else:
            # Precharge may not start before tRAS has elapsed since the
            # open row's activation; the new ACT additionally respects
            # the channel-level activate spacing.
            precharge_at = self.activated_at + t.t_ras
            if start > precharge_at:
                precharge_at = start
            activate_at = precharge_at + t.t_rp
            if earliest_activate > activate_at:
                activate_at = earliest_activate
            self.precharges += 1
            self.row_conflicts += 1
            kind = AccessKind.CONFLICT
        self.open_row = row
        self.activated_at = activate_at
        self.activates += 1
        return activate_at + t.t_rcd, kind

    def replay_rows_summary(
        self, first_row: int, last_row: int, n: int, changes: int
    ) -> None:
        """Functionally replay an ordered row-access stream (no timing).

        The stream arrives as its summary — *n* accesses, *changes*
        in-stream row transitions, first and last row — which the
        memory controller computes for every bank with whole-channel
        array passes.  Every in-stream row change is a conflict
        (precharge + ACT) and every unchanged row a hit; the first
        access is classified against the current open row, and the row
        buffer ends up holding *last_row*.  Timing state (``ready_at``
        / ``activated_at``) is untouched — fast-forwarded work consumes
        no simulated cycles.
        """
        if not n:
            return
        if self.open_row is None:
            self.row_misses += 1
            first_activates, first_precharges = 1, 0
        elif self.open_row == first_row:
            self.row_hits += 1
            first_activates, first_precharges = 0, 0
        else:
            self.row_conflicts += 1
            first_activates, first_precharges = 1, 1
        self.row_hits += n - 1 - changes
        self.row_conflicts += changes
        self.activates += changes + first_activates
        self.precharges += changes + first_precharges
        self.open_row = int(last_row)

    def occupy_until(self, cycle: int) -> None:
        """Block further commands to this bank until *cycle*."""
        if cycle > self.ready_at:
            self.ready_at = cycle
