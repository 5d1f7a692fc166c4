"""The controller's blocked-until shortcut vs a pump that always asks.

When every queued bank is busy, :class:`MemoryController` remembers
the cycle the first one frees up and re-arms its wake without calling
the scheduler again until an enqueue or an issue; after a lone pick
it derives that cycle from ``select``'s hint instead of asking again.
The reference controller below keeps the earlier ``_pump`` verbatim,
which calls ``select`` on every pass.  Driven by the same random
submit schedule (bursts inside one cycle, row hits and conflicts, idle
gaps, a reached in-flight cap), both must complete the same requests
at the same cycles after the same number of engine events, on the
baseline timing and with ``tCCD = 0``, where a picked bank can take
its next command in the same cycle.
"""

import dataclasses
import random

import pytest

from repro.dram.bank import AccessKind
from repro.dram.controller import MemoryController
from repro.dram.scheduler import DRAMRequest, FCFSScheduler, FRFCFSScheduler
from repro.dram.timing import gddr5_timing
from repro.sim.engine import Engine

T = gddr5_timing()


class ReferenceController(MemoryController):
    """Asks the scheduler on every pump (the pump before the shortcut)."""

    def _pump(self) -> None:
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
            bank_free = column_cmd + t.t_ccd
            if bank_free > bank.ready_at:
                bank.ready_at = bank_free  # Bank.occupy_until, inline
            if request.is_write:
                self.writes += 1
            else:
                self.reads += 1
            self._inflight += 1
            self._engine.at_call(data_end, self._data_done_cb, request)
            # The bank frees at column_cmd + tCCD which may be < data_end;
            # try to issue more work then.  With nothing queued there is
            # nothing to issue — the next submit wakes the pump itself.
            if scheduler.size:
                self._wake_at(bank_free)


class CountingScheduler:
    """Wraps a scheduler and counts its ``select`` calls."""

    def __init__(self, inner):
        self._inner = inner
        self.selects = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __len__(self):
        return len(self._inner)

    def select(self, banks, now):
        self.selects += 1
        return self._inner.select(banks, now)


def random_schedule(seed, n_bursts=250):
    """``[(cycle, [(bank, row, is_write), ...]), ...]`` in cycle order.

    Bursts land on few banks and few rows (so banks are often all busy,
    and row hits and conflicts both occur), sometimes several in one
    cycle, sometimes after an idle gap that drains the queues.
    """
    rng = random.Random(seed)
    hot_banks = rng.choice((1, 2, 3, T.banks_per_channel))
    n_rows = rng.choice((1, 2, 4, 64))
    cycle = 0
    schedule = []
    for _ in range(n_bursts):
        cycle += rng.choice((0, 0, 1, 2, 3, 5, 8, 13, 40, 120, 400))
        burst = [
            (rng.randrange(hot_banks), rng.randrange(n_rows), rng.random() < 0.3)
            for _ in range(rng.choice((1, 1, 2, 3, 6, 12)))
        ]
        schedule.append((cycle, burst))
    return schedule


def drive(controller_cls, scheduler_cls, schedule, max_inflight, timing=T):
    """Run *schedule* through one controller; return its observations."""
    engine = Engine()
    done = []
    scheduler = CountingScheduler(scheduler_cls(timing.banks_per_channel))
    controller = controller_cls(
        engine, timing, 0,
        on_complete=lambda r, t: done.append((r.request_id, t)),
        scheduler=scheduler, max_inflight=max_inflight,
    )
    ids = iter(range(10**9))
    for cycle, burst in schedule:
        engine.at_call(cycle, controller.submit_many, [
            DRAMRequest(next(ids), bank, row, is_write, cycle)
            for bank, row, is_write in burst
        ])
    engine.run()
    assert controller.pending == 0
    return done, engine.events_processed, scheduler.selects


T_CCD0 = dataclasses.replace(T, t_ccd=0)


@pytest.mark.parametrize("scheduler_cls,timing", [
    (FRFCFSScheduler, T), (FCFSScheduler, T),
    (FRFCFSScheduler, T_CCD0), (FCFSScheduler, T_CCD0),
], ids=["FR-FCFS", "FCFS", "FR-FCFS-tccd0", "FCFS-tccd0"])
@pytest.mark.parametrize("max_inflight", [4, 48])
@pytest.mark.parametrize("seed", range(6))
def test_blocked_shortcut_matches_always_selecting_pump(
    scheduler_cls, max_inflight, seed, timing
):
    schedule = random_schedule(seed)
    done, events, selects = drive(
        MemoryController, scheduler_cls, schedule, max_inflight, timing
    )
    ref_done, ref_events, ref_selects = drive(
        ReferenceController, scheduler_cls, schedule, max_inflight, timing
    )
    assert done == ref_done
    assert events == ref_events
    assert len(done) == sum(len(burst) for _, burst in schedule)
    if timing.t_ccd == 0 and seed == 1:
        # Two banks, one row: every access after the first is a row hit
        # whose bank is ready again in the same cycle, so the reference
        # never asks in vain where the shortcuts could have skipped it.
        assert selects == ref_selects
    else:
        # The shortcuts did engage: some pumps skipped the scheduler.
        assert selects < ref_selects


def test_enqueue_clears_blocked_until():
    """A request to an idle bank issues at once, not when the busy ones free."""
    engine = Engine()
    done = []
    controller = MemoryController(
        engine, T, 0, on_complete=lambda r, t: done.append((r.request_id, t))
    )
    # Two requests on bank 0: the second waits for the bank, so the
    # controller blocks until bank 0 frees up.
    controller.submit_many([DRAMRequest(0, 0, 1, False, 0),
                            DRAMRequest(1, 0, 2, False, 0)])
    engine.run(until=1)
    assert controller._blocked_until is not None
    engine.at_call(2, controller.submit_many, [DRAMRequest(2, 5, 1, False, 2)])
    engine.run()
    finished = dict(done)
    # Bank 5 was idle, so its cold miss activates at once and finishes
    # long before bank 0's row conflict, which has to wait out tRAS.
    assert finished[2] < finished[1]
