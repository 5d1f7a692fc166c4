"""Streaming Multiprocessor model.

Each SM runs the warps of its assigned TBs.  A warp is a simple
fetch-issue-stall machine over its trace: compute for ``gap`` cycles,
issue the memory transaction, and (for loads) stall until the response
returns.  Warps progress independently — the massive warp-level
parallelism is what keeps hundreds of requests in flight, which is the
regime the paper's entropy argument applies to.  GTO's relevant
effect, that co-resident TBs are consecutive in issue order, is
produced by the TB scheduler assigning TBs in identifier order.

The SM issues at most one memory instruction per ``issue_interval``
cycles (the coalescer port).  Issue is driven by one per-SM tick, not
per-warp events: a warp whose compute gap elapses joins the SM's ready
deque (preserving GTO age order), and a single tick callback per
``issue_interval`` drains one warp through the port/L1/MSHR logic.
Under port contention this costs one event per issue slot instead of
one retry event per waiting warp per slot.

Loads go through the per-SM L1 (write-through, no-write-allocate for
stores; allocate-on-fill with MSHR merging for loads).  L1 misses
become NoC transactions handled by the system; fills wake all merged
waiters and retry MSHR-full stalls.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.engine import Engine
from .cache import MSHRFile, MSHROutcome, SetAssociativeCache
from .config import GPUConfig
from .thread_block import TBContext, WarpContext

__all__ = ["SM", "MemRequest"]

FULL = MSHROutcome.FULL
NEW = MSHROutcome.NEW


class MemRequest:
    """An L1-miss read transaction travelling through NoC/LLC/DRAM.

    ``l1_set`` and ``llc_set`` are the line's precomputed set indices in
    the issuing SM's L1 and in its LLC slice (None: the cache hashes
    the line itself).
    """

    __slots__ = (
        "sm_id", "line", "channel", "bank", "row", "slice", "issued_at",
        "l1_set", "llc_set",
    )

    def __init__(
        self, sm_id: int, line: int, channel: int, bank: int, row: int,
        slice_id: int, issued_at: int, l1_set: Optional[int] = None,
        llc_set: Optional[int] = None,
    ) -> None:
        self.sm_id = sm_id
        self.line = line
        self.channel = channel
        self.bank = bank
        self.row = row
        self.slice = slice_id
        self.issued_at = issued_at
        self.l1_set = l1_set
        self.llc_set = llc_set

    def __repr__(self) -> str:
        return (
            f"MemRequest(sm={self.sm_id}, line=0x{self.line:x}, ch={self.channel}, "
            f"bank={self.bank}, row={self.row})"
        )


class SM:
    """One Streaming Multiprocessor with its private L1."""

    def __init__(
        self,
        engine: "Engine",
        config: GPUConfig,
        sm_id: int,
        send_read: Callable[[MemRequest], None],
        send_write: Callable[["SM", int, int, int, Callable, object], None],
    ) -> None:
        """*send_read* forwards an L1 miss; *send_write* takes
        ``(sm, slice_id, line, llc_set, on_accepted, arg)`` for
        write-through stores — ``llc_set`` is the line's precomputed
        LLC set index and ``on_accepted(arg)`` fires when the store is
        accepted downstream (closure-free, like the engine's
        ``at_call``)."""
        self._engine = engine
        self._config = config
        # Config values read on every issue/completion, kept as plain
        # attributes.
        self._issue_interval = config.issue_interval
        self._l1_latency = config.l1_latency
        self._max_outstanding = config.max_outstanding_per_warp
        self._mshr_capacity = config.l1_mshrs
        self.sm_id = sm_id
        self._send_read = send_read
        self._send_write = send_write
        self.l1 = SetAssociativeCache(
            config.l1_sets, config.l1_ways, config.line_bytes, name=f"L1[{sm_id}]"
        )
        self.mshr = MSHRFile(config.l1_mshrs, name=f"L1-MSHR[{sm_id}]")
        self._port_free_at = 0
        # Warps whose compute gap has elapsed, waiting for the issue
        # port, in readiness (age) order.
        self._ready: Deque[WarpContext] = deque()
        # Warps parked on a full MSHR file; on_fill retries them.
        self._stalled: Deque[WarpContext] = deque()
        self._tick_armed = False
        # Pre-bound callbacks: scheduling through the engine's
        # closure-free API then allocates nothing per event.
        self._tick_cb = self._tick
        self._warp_ready_cb = self._warp_ready
        self._op_completed_cb = self._op_completed
        self.active_tbs: List[TBContext] = []
        # Warps of the active TBs, kept as a running count: the TB
        # scheduler reads it for every SM on every dispatch attempt.
        self.warp_count = 0
        self.on_tb_done: Optional[Callable[[TBContext], None]] = None
        # Statistics.
        self.instructions_issued = 0
        self.ops_completed = 0
        self.warp_stall_cycles = 0

    # ------------------------------------------------------------------
    # Occupancy
    # ------------------------------------------------------------------
    @property
    def tb_count(self) -> int:
        return len(self.active_tbs)

    @property
    def in_flight_ops(self) -> int:
        """Memory ops issued by this SM's warps and not yet completed.

        The sampled-fidelity trajectory sampler reads this as its
        issue-pressure signal: a polling segment with nothing in
        flight anywhere is ramp or drain, not steady state, and is
        excluded from the rate-drift fit.
        """
        return sum(
            warp.outstanding for tb in self.active_tbs for warp in tb.warps
        )

    def can_accept(self, tb: TBContext) -> bool:
        """Whether this SM has resources for another TB (the window bound)."""
        return (
            len(self.active_tbs) < self._config.max_tbs_per_sm
            and self.warp_count + tb.n_warps <= self._config.max_warps_per_sm
        )

    def assign_tb(self, tb: TBContext) -> None:
        """Start executing a TB on this SM."""
        if not self.can_accept(tb):
            raise RuntimeError(f"SM {self.sm_id} cannot accept TB {tb.tb_id}")
        tb.sm_id = self.sm_id
        tb.on_done = self._tb_done
        self.active_tbs.append(tb)
        self.warp_count += tb.n_warps
        started = False
        for warp in tb.warps:
            if warp.n_ops:
                started = True
                self._schedule_issue(warp)
        if not started:
            # A TB with no memory requests completes immediately.
            self._tb_done(tb)

    def _tb_done(self, tb: TBContext) -> None:
        if tb in self.active_tbs:
            self.active_tbs.remove(tb)
            self.warp_count -= tb.n_warps
        if self.on_tb_done is not None:
            self.on_tb_done(tb)

    # ------------------------------------------------------------------
    # Warp issue pipeline
    # ------------------------------------------------------------------
    # A warp may keep up to ``max_outstanding_per_warp`` memory
    # instructions in flight (independent loads pipeline; the warp only
    # stalls on a dependent use).  ``warp.op`` is the next instruction
    # to issue; ``warp.outstanding`` counts issued-but-uncompleted ops;
    # ``warp.issue_pending`` marks that the warp is waiting for its
    # compute gap, sitting in the ready deque, or parked in the
    # MSHR-full queue, so completions never double-schedule.

    # The per-op path below is written flat: warp cursor moves
    # (``op``/``n_ops``), tick arming and issue scheduling are inlined
    # where they happen, because each helper frame is paid once per op.

    def _schedule_issue(self, warp: WarpContext) -> None:
        """Arrange for the warp's next op to issue after its compute gap."""
        warp.issue_pending = True
        gap = warp.gaps[warp.op]
        if gap:
            self._engine.after_call(gap, self._warp_ready_cb, warp)
        else:
            self._warp_ready(warp)

    def _warp_ready(self, warp: WarpContext) -> None:
        """The warp's compute gap elapsed: queue it for the issue port."""
        engine = self._engine
        now = engine.now
        warp.ready_at = now
        self._ready.append(warp)
        if not self._tick_armed:
            # Arm the next issue-port tick, at port-free time.
            self._tick_armed = True
            free = self._port_free_at
            engine.at_call(free if free > now else now, self._tick_cb, None)

    def _tick(self, _arg: object) -> None:
        """One issue-port slot: drain the oldest ready warp through it."""
        self._tick_armed = False
        ready = self._ready
        if not ready:
            return
        now = self._engine.now
        free = self._port_free_at
        if free <= now:
            warp = ready.popleft()
            self.warp_stall_cycles += now - warp.ready_at
            free = self._port_free_at = now + self._issue_interval
            self._issue_op(warp)
            # _issue_op may have re-armed already (a gap-0 warp
            # re-readies synchronously through _warp_ready); arming
            # again here would stack duplicate ticks that then compound
            # each slot.
            if not ready or self._tick_armed:
                return
        # Re-arm for the next port slot.  (Entering with the port still
        # busy is defensive: ticks are only armed at port-free time.)
        self._tick_armed = True
        self._engine.at_call(free if free > now else now, self._tick_cb, None)

    def _issue_op(self, warp: WarpContext) -> None:
        """Issue the warp's next op through L1/MSHR/store logic.

        Entered with ``warp.issue_pending`` set (it stays set while the
        warp waits for its gap, the port or a free MSHR).
        """
        op = warp.op
        if op >= warp.n_ops:
            # A sampled-fidelity freeze moved the cursor past the end
            # while this issue was already scheduled: nothing left to
            # issue.  Never taken in exact mode.
            warp.issue_pending = False
            warp.maybe_retire()
            return
        self.instructions_issued += 1
        line = warp.lines[op]
        if warp.writes[op]:
            # Write-through store: the warp does not wait for DRAM, but
            # the slot is held until the store is *accepted* by its LLC
            # slice (store-queue backpressure) — a congested slice port
            # therefore throttles write-heavy warps.
            self.l1.write_through(line, warp.l1_sets[op])
            warp.outstanding += 1
            self._send_write(
                self, warp.slices[op], line, warp.llc_sets[op],
                self._op_completed_cb, warp,
            )
        elif self.l1.try_read(line, warp.l1_sets[op]):
            warp.outstanding += 1
            self._engine.after_call(self._l1_latency, self._op_completed_cb, warp)
        else:
            self.l1.stats.read_misses += 1
            outcome = self.mshr.allocate(line, warp)
            if outcome == FULL:
                # Park the warp; on_fill retries it. issue_pending stays
                # set so completions do not schedule a duplicate issue.
                self._stalled.append(warp)
                return
            warp.outstanding += 1
            if outcome == NEW:
                self._send_read(MemRequest(
                    self.sm_id, line, warp.channels[op], warp.banks[op],
                    warp.rows[op], warp.slices[op], self._engine.now,
                    warp.l1_sets[op], warp.llc_sets[op],
                ))
            # MERGED: the in-flight fetch wakes this warp too.
        # The op left the issue stage: advance the cursor and schedule
        # the next issue if the warp may keep another op in flight.
        op += 1
        warp.op = op
        if op < warp.n_ops and warp.outstanding < self._max_outstanding:
            gap = warp.gaps[op]
            if gap:
                self._engine.after_call(gap, self._warp_ready_cb, warp)
            else:
                self._warp_ready(warp)
        else:
            warp.issue_pending = False

    def _issued(self, warp: WarpContext) -> None:
        """Bookkeeping after a parked op left the issue stage."""
        warp.advance()
        if warp.op < warp.n_ops and warp.outstanding < self._max_outstanding:
            self._schedule_issue(warp)
        else:
            warp.issue_pending = False

    def _op_completed(self, warp: WarpContext) -> None:
        """A load returned / store was accepted: free the warp slot."""
        outstanding = warp.outstanding
        if outstanding <= 0:
            raise RuntimeError(f"warp {warp.warp_id}: completion underflow")
        outstanding -= 1
        warp.outstanding = outstanding
        self.ops_completed += 1
        if warp.op >= warp.n_ops:
            if not outstanding:
                warp.maybe_retire()
        elif not warp.issue_pending and outstanding < self._max_outstanding:
            self._schedule_issue(warp)

    # ------------------------------------------------------------------
    # Fill path
    # ------------------------------------------------------------------
    def on_fill(self, line: int, set_id: Optional[int] = None) -> None:
        """A missed line arrived from the LLC: install it and wake waiters.

        *set_id* is the line's precomputed L1 set index, if known.
        """
        self.l1.fill(line, False, set_id)
        op_completed = self._op_completed
        for warp in self.mshr.complete(line):
            op_completed(warp)
        # MSHR entries freed: retry parked warps. A retried warp may
        # now hit (another warp's fill brought its line in).
        stalled = self._stalled
        if stalled:
            in_flight = self.mshr.waiters
            capacity = self._mshr_capacity
            while stalled and len(in_flight) < capacity:
                self._try_issue_parked(stalled.popleft())

    def _try_issue_parked(self, warp: WarpContext) -> None:
        """Retry a warp that was parked on a full MSHR file."""
        op = warp.op
        if op >= warp.n_ops:
            # Fast-forwarded past the end while parked (sampled mode).
            warp.issue_pending = False
            warp.maybe_retire()
            return
        line = warp.lines[op]
        if self.l1.try_read(line, warp.l1_sets[op]):
            warp.outstanding += 1
            self._engine.after_call(self._l1_latency, self._op_completed_cb, warp)
            self._issued(warp)
            return
        outcome = self.mshr.allocate(line, warp)
        if outcome == FULL:
            self._stalled.appendleft(warp)
            return
        warp.outstanding += 1
        if outcome == NEW:
            self._send_read(MemRequest(
                self.sm_id, line, warp.channels[op], warp.banks[op],
                warp.rows[op], warp.slices[op], self._engine.now,
                warp.l1_sets[op], warp.llc_sets[op],
            ))
        self._issued(warp)

    def __repr__(self) -> str:
        return (
            f"SM({self.sm_id}, tbs={self.tb_count}, warps={self.warp_count}, "
            f"issued={self.instructions_issued})"
        )
