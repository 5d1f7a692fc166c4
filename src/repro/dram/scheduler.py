"""FR-FCFS request selection (Rixner et al. [17]).

First-Ready First-Come-First-Served picks, among all queued requests
whose bank can accept a command *now*:

1. the oldest request that is a **row hit** on its bank's open row, or
2. failing any ready hit, the oldest ready request overall.

The policy is factored out of the memory controller so it can be unit
tested in isolation and swapped for alternatives (e.g. plain FCFS) in
ablation experiments.

Data structures: each bank's queue is an **insertion-ordered dict**
(sequence number -> request) plus one FIFO of sequence numbers per
distinct row.  Both FR-FCFS questions are then O(1) per bank:

* "oldest pending request" — the dict's first key (dicts preserve
  insertion order and deletion keeps it),
* "oldest pending row hit" — the head of the open row's FIFO.

The popped request is, in either case, the head of its own row FIFO
(the oldest overall is necessarily the oldest of its row), so removal
is two O(1) pops — no scan of the bank queue.  Behaviour is identical
to the historical list-scanning implementation (same selection order,
same round-robin tie-breaking); ``tests/dram/test_scheduler_equiv.py``
pins the equivalence against a reference implementation.

A queued request is any object with ``bank``, ``row``, ``is_write``
and ``arrival``.  ``select`` returns ``(request, hint)``: with no pick,
*hint* is the earliest cycle a queued bank is ready; on a pick, the
earliest cycle *another* queued bank can take a command (``now`` if
one is ready; the scan counts ready banks).  None: no such bank.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from .bank import Bank

__all__ = ["DRAMRequest", "FRFCFSScheduler", "FCFSScheduler"]


@dataclass(slots=True)
class DRAMRequest:
    """One memory request as seen by a channel's controller.

    ``bank`` and ``row`` are coordinates decoded from the *mapped*
    address.  ``payload`` is opaque to the DRAM subsystem and is handed
    back on completion (the GPU side stores a writeback's channel
    there; its reads are queued as themselves, see the module
    docstring).  Slots keep the per-request footprint small.
    """

    request_id: int
    bank: int
    row: int
    is_write: bool
    arrival: int
    payload: object = None


class FRFCFSScheduler:
    """Per-channel FR-FCFS queues with O(banks) selection.

    Requests live in per-bank insertion-ordered dicts with per-row
    FIFOs, so both the row-hit pick and the oldest pick are O(1) per
    bank (see the module docstring).
    """

    name = "FR-FCFS"

    def __init__(self, n_banks: int) -> None:
        if n_banks <= 0:
            raise ValueError(f"need at least one bank, got {n_banks}")
        # seq -> request, insertion-ordered; first entry is the oldest.
        self._queues: List[Dict[int, DRAMRequest]] = [{} for _ in range(n_banks)]
        # row -> FIFO of sequence numbers, per bank.
        self._row_fifos: List[Dict[int, Deque[int]]] = [{} for _ in range(n_banks)]
        self._seq = 0
        # Queued requests.  Public for read-only use: the controller's
        # pump tests it on every pass.
        self.size = 0
        # High-water mark of the channel queue.  Auto-fidelity drift
        # correction reads queue depth as its steady-state signal, and
        # the peak is the cheap summary of how deep this channel ever
        # ran (depth is what FR-FCFS row-hit rate improves with).
        self.peak_depth = 0
        # Round-robin start position so that equal-age requests do not
        # starve high-numbered banks.  All n rotations are precomputed
        # once; select() runs on every controller wake, so building the
        # order list per call shows up in profiles.
        self._rr = 0
        self._orders: Tuple[Tuple[int, ...], ...] = tuple(
            tuple((start + i) % n_banks for i in range(n_banks))
            for start in range(n_banks)
        )

    def __len__(self) -> int:
        return self.size

    def pending_for_bank(self, bank: int) -> int:
        return len(self._queues[bank])

    def enqueue_many(self, requests: Sequence[DRAMRequest]) -> None:
        """Add a cycle's arrivals to their banks' queues, in order."""
        seq = self._seq
        queues = self._queues
        row_fifos = self._row_fifos
        for request in requests:
            queues[request.bank][seq] = request
            fifos = row_fifos[request.bank]
            fifo = fifos.get(request.row)
            if fifo is None:
                fifos[request.row] = deque((seq,))
            else:
                fifo.append(seq)
            seq += 1
        self._seq = seq
        self.size += len(requests)
        if self.size > self.peak_depth:
            self.peak_depth = self.size

    def _pop(self, bank_idx: int, seq: int, request: DRAMRequest) -> None:
        """Remove a picked request (always the head of its row FIFO)."""
        del self._queues[bank_idx][seq]
        fifos = self._row_fifos[bank_idx]
        fifo = fifos[request.row]
        fifo.popleft()
        if not fifo:
            del fifos[request.row]
        self.size -= 1
        self._rr = (bank_idx + 1) % len(self._queues)

    def select(self, banks: Sequence[Bank], now: int) -> Tuple[Optional[DRAMRequest], Optional[int]]:
        """Pick the next request to issue at time *now* (and pop it).

        Returns ``(request, hint)``; the module docstring defines
        *hint* with and without a pick.

        Candidates rank by (row hit, arrival): the best hit and the
        oldest non-hit are tracked apart, a hit wins, ties go to
        round-robin order.
        """
        hit_arrival = miss_arrival = next_ready = None
        hit = miss = None
        ready = 0
        queues = self._queues
        row_fifos = self._row_fifos
        for bank_idx in self._orders[self._rr]:
            queue = queues[bank_idx]
            if not queue:
                continue
            bank = banks[bank_idx]
            ready_at = bank.ready_at
            if ready_at > now:
                if next_ready is None or ready_at < next_ready:
                    next_ready = ready_at
                continue
            ready += 1
            fifo = row_fifos[bank_idx].get(bank.open_row)
            if fifo is not None:
                seq = fifo[0]
                request = queue[seq]
                if hit_arrival is None or request.arrival < hit_arrival:
                    hit_arrival = request.arrival
                    hit = (bank_idx, seq, request)
            elif hit is None:
                seq = next(iter(queue))
                request = queue[seq]
                if miss_arrival is None or request.arrival < miss_arrival:
                    miss_arrival = request.arrival
                    miss = (bank_idx, seq, request)
        pick = hit if hit is not None else miss
        if pick is None:
            return None, next_ready
        bank_idx, seq, request = pick
        self._pop(bank_idx, seq, request)
        return request, now if ready > 1 else next_ready


class FCFSScheduler(FRFCFSScheduler):
    """Strict arrival-order scheduling (ablation baseline).

    Still skips banks that are not ready (otherwise a single busy bank
    would stall the whole channel), but never reorders for row hits.
    """

    name = "FCFS"

    def select(self, banks: Sequence[Bank], now: int) -> Tuple[Optional[DRAMRequest], Optional[int]]:
        best_pick: Optional[Tuple[int, int, DRAMRequest]] = None
        best_arrival: Optional[int] = None
        next_ready: Optional[int] = None
        ready = 0
        for bank_idx in self._orders[self._rr]:
            queue = self._queues[bank_idx]
            if not queue:
                continue
            bank = banks[bank_idx]
            if bank.ready_at > now:
                if next_ready is None or bank.ready_at < next_ready:
                    next_ready = bank.ready_at
                continue
            ready += 1
            seq = next(iter(queue))
            request = queue[seq]
            if best_arrival is None or request.arrival < best_arrival:
                best_arrival = request.arrival
                best_pick = (bank_idx, seq, request)
        if best_pick is None:
            return None, next_ready
        bank_idx, seq, request = best_pick
        self._pop(bank_idx, seq, request)
        return request, now if ready > 1 else next_ready
