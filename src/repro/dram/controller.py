"""Per-channel memory controller.

Owns the channel's banks, its FR-FCFS request queues and the shared
data bus, and drives them through the discrete-event engine:

* requests arrive via :meth:`MemoryController.submit`, or in same-cycle
  batches via :meth:`MemoryController.submit_many`; all arrivals of one
  cycle are scheduled by a single FR-FCFS pass,
* whenever a bank or the bus frees up the controller re-runs the
  scheduler and issues every request that can start,
* the completion callback fires when the request's data burst finishes
  on the bus.

Timing model per issued request (see :mod:`repro.dram.bank` for the
row-buffer cases)::

    column_cmd = bank.access(row)          # hit / miss / conflict path
    data_start = max(column_cmd + CL, bus_free)
    data_end   = data_start + tBURST
    bank ready for next command at column_cmd + tCCD

Activates on one channel are additionally spaced by tRRD.  The
controller issues at most ``issue_horizon`` bursts ahead of the bus to
bound command pipelining.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.engine import Engine
from .bank import AccessKind, Bank
from .scheduler import DRAMRequest, FRFCFSScheduler
from .timing import DRAMTiming

__all__ = ["MemoryController"]

CompletionCallback = Callable[[DRAMRequest, int], None]


class MemoryController:
    """One DRAM channel: banks + scheduler + data bus arbitration."""

    def __init__(
        self,
        engine: "Engine",
        timing: DRAMTiming,
        channel_id: int,
        on_complete: Optional[CompletionCallback] = None,
        scheduler: Optional[FRFCFSScheduler] = None,
        max_inflight: int = 48,
    ) -> None:
        self._engine = engine
        self._timing = timing
        self.channel_id = channel_id
        self._on_complete = on_complete
        self._scheduler = scheduler if scheduler is not None else FRFCFSScheduler(
            timing.banks_per_channel
        )
        self.banks: List[Bank] = [Bank(timing) for _ in range(timing.banks_per_channel)]
        self._bus_free_at = 0
        self._last_activate_at = -(10**9)
        # Issued-but-untransferred commands; bounds command pipelining
        # like a real controller's finite command queue.
        self._inflight = 0
        self._max_inflight = max_inflight
        self._wake_scheduled_at: Optional[int] = None
        # Pre-bound for the engine's closure-free scheduling fast path.
        self._wake_cb = self._wake
        self._data_done_cb = self._data_done
        # Statistics.
        self.reads = 0
        self.writes = 0
        self.requests_seen = 0
        self.busy_cycles = 0  # data-bus occupancy
        self.queue_wait_total = 0  # arrival -> issue, summed

    # ------------------------------------------------------------------
    # Request intake
    # ------------------------------------------------------------------
    def submit(self, request: DRAMRequest) -> None:
        """Queue a request (bank/row already decoded by the caller)."""
        self.submit_many((request,))

    def submit_many(self, requests: Sequence[DRAMRequest]) -> None:
        """Queue a batch of requests arriving this cycle.

        Scheduling is deferred to a single same-cycle wake event rather
        than pumped per request: all arrivals of one cycle are enqueued
        first and then considered by *one* FR-FCFS pass, so a burst of
        N submits costs one scheduling sweep instead of N.
        """
        n_banks = self._timing.banks_per_channel
        for request in requests:
            if not 0 <= request.bank < n_banks:
                raise ValueError(
                    f"bank {request.bank} out of range for channel with "
                    f"{n_banks} banks"
                )
        self.requests_seen += len(requests)
        self._scheduler.enqueue_many(requests)
        self._wake_at(self._engine.now)

    @property
    def pending(self) -> int:
        return len(self._scheduler)

    @property
    def peak_queue_depth(self) -> int:
        """High-water mark of this channel's request queue."""
        return self._scheduler.peak_depth

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        """Issue every request that can start now; arrange a wake otherwise.

        The issue step is inline: it runs once per DRAM request.
        """
        now = self._engine.now
        scheduler = self._scheduler
        banks = self.banks
        t = self._timing
        while True:
            if not scheduler.size:
                return
            # Finite command queue: wait for transfers to drain before
            # issuing further ahead (the drain event re-pumps).
            if self._inflight >= self._max_inflight:
                return
            request, next_ready = scheduler.select(banks, now)
            if request is None:
                if next_ready is not None:
                    self._wake_at(next_ready)
                return
            bank = banks[request.bank]
            # Space activates channel-wide by tRRD: the bank delays the
            # ACT command (not the whole access) past last_activate +
            # tRRD.
            column_cmd, kind = bank.access(
                request.row, now, self._last_activate_at + t.t_rrd
            )
            if kind != AccessKind.HIT:
                activated = column_cmd - t.t_rcd
                if activated > self._last_activate_at:
                    self._last_activate_at = activated
            data_start = column_cmd + t.cl
            if self._bus_free_at > data_start:
                data_start = self._bus_free_at
            data_end = data_start + t.t_burst
            self._bus_free_at = data_end
            self.busy_cycles += t.t_burst
            bank_free = column_cmd + t.t_ccd
            if bank_free > bank.ready_at:
                bank.ready_at = bank_free  # Bank.occupy_until, inline
            if request.is_write:
                self.writes += 1
            else:
                self.reads += 1
            if now > request.arrival:
                self.queue_wait_total += now - request.arrival
            self._inflight += 1
            self._engine.at_call(data_end, self._data_done_cb, request)
            # The bank frees at column_cmd + tCCD which may be < data_end;
            # try to issue more work then.  With nothing queued there is
            # nothing to issue — the next submit wakes the pump itself.
            if scheduler.size:
                self._wake_at(bank_free)

    def _data_done(self, request: DRAMRequest) -> None:
        # Fires exactly at the request's data_end cycle, so "when" is
        # simply the current time.
        self._inflight -= 1
        if self._on_complete is not None:
            self._on_complete(request, self._engine.now)
        self._pump()

    # ------------------------------------------------------------------
    # Functional replay (sampled and auto fidelity)
    # ------------------------------------------------------------------
    def replay_traffic(self, banks, rows, n_reads: int, n_writes: int) -> None:
        """Functionally replay decoded DRAM traffic (no engine events).

        *banks*/*rows* are the per-request coordinates in replay
        order; *n_reads*/*n_writes* split the stream by direction for
        the read/write energy counters.  Each bank's sub-stream (order
        preserved) updates its row-buffer counters and open row, so
        activate/hit/conflict counts stay integrated across
        fast-forwarded work.  Queues, timing and the data bus are
        untouched — no simulated cycles elapse.

        One stable argsort groups the stream by bank; per-bank row
        transitions are counted with a single whole-channel ``np.diff``
        comparison (transitions at segment starts masked off), and each
        present bank applies its summary via
        :meth:`~repro.dram.bank.Bank.replay_rows_summary`.
        """
        banks = np.asarray(banks)
        rows = np.asarray(rows)
        if len(banks) != len(rows):
            raise ValueError(
                f"bank/row replay arrays disagree on length: "
                f"{len(banks)}/{len(rows)}"
            )
        if len(banks):
            order = np.argsort(banks, kind="stable")
            sorted_banks = banks[order]
            sorted_rows = rows[order]
            n = sorted_banks.size
            is_start = np.r_[True, sorted_banks[1:] != sorted_banks[:-1]]
            starts = np.flatnonzero(is_start)
            # A row change inside a bank segment = adjacent rows differ
            # and the boundary is not a segment start.
            change = np.r_[False, sorted_rows[1:] != sorted_rows[:-1]]
            change[starts] = False
            change_cum = np.cumsum(change)
            ends = np.r_[starts[1:], n]
            seg_changes = change_cum[ends - 1] - change_cum[starts]
            for i in range(starts.size):
                s, e = int(starts[i]), int(ends[i])
                self.banks[int(sorted_banks[s])].replay_rows_summary(
                    int(sorted_rows[s]),
                    int(sorted_rows[e - 1]),
                    e - s,
                    int(seg_changes[i]),
                )
        self.reads += n_reads
        self.writes += n_writes
        self.requests_seen += n_reads + n_writes
        # Account the bursts the transfers would have occupied, so
        # bandwidth_utilization stays meaningful against extrapolated
        # cycle counts.
        self.busy_cycles += (n_reads + n_writes) * self._timing.t_burst

    def _wake_at(self, time: int) -> None:
        engine = self._engine
        if time < engine.now:
            time = engine.now
        scheduled = self._wake_scheduled_at
        if scheduled is not None and scheduled <= time:
            return
        self._wake_scheduled_at = time
        engine.at(time, self._wake_cb)

    def _wake(self) -> None:
        # Only the event matching the marker may clear it; stale events
        # (superseded by an earlier wake) must not, or every stale event
        # would re-arm a duplicate and wakes would multiply.
        if self._wake_scheduled_at == self._engine.now:
            self._wake_scheduled_at = None
        self._pump()

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def activates(self) -> int:
        return sum(b.activates for b in self.banks)

    @property
    def precharges(self) -> int:
        return sum(b.precharges for b in self.banks)

    @property
    def row_hits(self) -> int:
        return sum(b.row_hits for b in self.banks)

    @property
    def accesses(self) -> int:
        return sum(b.accesses for b in self.banks)

    def row_hit_rate(self) -> float:
        """Channel-wide row buffer hit rate."""
        total = self.accesses
        return self.row_hits / total if total else 0.0

    def bandwidth_utilization(self, elapsed_cycles: int) -> float:
        """Fraction of cycles the data bus moved data."""
        return self.busy_cycles / elapsed_cycles if elapsed_cycles else 0.0

    def __repr__(self) -> str:
        return (
            f"MemoryController(channel={self.channel_id}, pending={self.pending}, "
            f"reads={self.reads}, writes={self.writes})"
        )
