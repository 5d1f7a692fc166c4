"""FR-FCFS / FCFS O(1) selection vs the reference list-scan.

The schedulers were rewritten with per-bank insertion-ordered dicts
plus per-row FIFOs so the row-hit branch no longer rescans the bank
queue.  These property tests pin the rewrite to the historical
behaviour: over randomized workloads (arrival ties, row mixes, busy
banks, interleaved enqueue/select), the sequence of picked requests —
and every reported ``next_ready`` gap — must be identical to the
original implementation, which is reproduced verbatim below.

The reference returns no hint on a pick; the real schedulers' pick
hint is checked against the bank states just before each call.
"""

import random

from repro.dram.bank import Bank
from repro.dram.scheduler import DRAMRequest, FCFSScheduler, FRFCFSScheduler
from repro.dram.timing import gddr5_timing

T = gddr5_timing()


class ReferenceFRFCFS:
    """The pre-optimization list-scanning implementation (verbatim)."""

    def __init__(self, n_banks):
        self._queues = [[] for _ in range(n_banks)]
        self._row_counts = [{} for _ in range(n_banks)]
        self._size = 0
        self._rr = 0
        self._orders = tuple(
            tuple((start + i) % n_banks for i in range(n_banks))
            for start in range(n_banks)
        )

    def __len__(self):
        return self._size

    def enqueue_many(self, requests):
        for request in requests:
            self._queues[request.bank].append(request)
            counts = self._row_counts[request.bank]
            counts[request.row] = counts.get(request.row, 0) + 1
        self._size += len(requests)

    def select(self, banks, now):
        best_key = None
        best_pos = None
        next_ready = None
        queues = self._queues
        row_counts = self._row_counts
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
            open_row = bank.open_row
            if open_row is not None and row_counts[bank_idx].get(open_row, 0) > 0:
                for i, req in enumerate(queue):
                    if req.row == open_row:
                        key = (0, req.arrival)
                        pos = (bank_idx, i)
                        break
            else:
                key = (1, queue[0].arrival)
                pos = (bank_idx, 0)
            if best_key is None or key < best_key:
                best_key, best_pos = key, pos
        if best_pos is None:
            return None, next_ready
        bank_idx, i = best_pos
        request = self._queues[bank_idx].pop(i)
        counts = self._row_counts[bank_idx]
        counts[request.row] -= 1
        if not counts[request.row]:
            del counts[request.row]
        self._size -= 1
        self._rr = (bank_idx + 1) % len(self._queues)
        return request, None


class ReferenceFCFS(ReferenceFRFCFS):
    def select(self, banks, now):
        best_pos = None
        best_arrival = None
        next_ready = None
        for bank_idx in self._orders[self._rr]:
            queue = self._queues[bank_idx]
            if not queue:
                continue
            bank = banks[bank_idx]
            if bank.ready_at > now:
                if next_ready is None or bank.ready_at < next_ready:
                    next_ready = bank.ready_at
                continue
            if best_arrival is None or queue[0].arrival < best_arrival:
                best_arrival = queue[0].arrival
                best_pos = bank_idx
        if best_pos is None:
            return None, next_ready
        request = self._queues[best_pos].pop(0)
        counts = self._row_counts[best_pos]
        counts[request.row] -= 1
        if not counts[request.row]:
            del counts[request.row]
        self._size -= 1
        self._rr = (best_pos + 1) % len(self._queues)
        return request, None


def random_workload(rng, n_banks, n_rows, n_requests, arrival_ties):
    """A batch stream with heavy row reuse and arrival ties."""
    batches = []
    request_id = 0
    arrival = 0
    while request_id < n_requests:
        size = rng.randint(1, 6)
        batch = []
        for _ in range(size):
            batch.append(DRAMRequest(
                request_id=request_id,
                bank=rng.randrange(n_banks),
                row=rng.randrange(n_rows),
                is_write=bool(rng.getrandbits(1)),
                arrival=arrival,
            ))
            request_id += 1
        batches.append((arrival, batch))
        arrival += 0 if (arrival_ties and rng.random() < 0.5) else rng.randint(1, 5)
    return batches


def pick_hint(queued_ready, picked_bank, now):
    """When another queued bank can take a command, from the bank
    states before the pick: ``now`` if one is ready, None if there is
    no other queued bank."""
    others = [ready for bank, ready in queued_ready.items()
              if bank != picked_bank]
    if not others:
        return None
    return max(min(others), now)


def drive_pair(real, reference, rng, n_banks, batches):
    """Feed both schedulers identically; assert identical pops."""
    banks_real = [Bank(T) for _ in range(n_banks)]
    banks_ref = [Bank(T) for _ in range(n_banks)]
    now = 0
    picks = 0
    pending_batches = list(batches)
    while pending_batches or len(real):
        # Deliver every batch that has arrived by `now`.
        while pending_batches and pending_batches[0][0] <= now:
            _, batch = pending_batches.pop(0)
            real.enqueue_many(batch)
            reference.enqueue_many(batch)
        assert len(real) == len(reference)
        # Randomly mutate bank state (identically on both sides).
        for bank_real, bank_ref in zip(banks_real, banks_ref):
            roll = rng.random()
            if roll < 0.15:
                until = now + rng.randint(1, 8)
                bank_real.occupy_until(until)
                bank_ref.occupy_until(until)
            elif roll < 0.25 and len(real):
                row = rng.randrange(8)
                bank_real.access(row, now)
                bank_ref.access(row, now)
                # Undo the timing block so selection stays exercised;
                # keep the open row.
                bank_real.ready_at = bank_ref.ready_at = 0
        # Drain a few picks at this instant.
        for _ in range(rng.randint(1, 4)):
            queued_ready = {
                b: banks_real[b].ready_at
                for b in range(n_banks) if real.pending_for_bank(b)
            }
            got_real = real.select(banks_real, now)
            got_ref = reference.select(banks_ref, now)
            assert (got_real[0] is None) == (got_ref[0] is None)
            if got_real[0] is None:
                assert got_real[1] == got_ref[1]
                break
            assert got_real[0].request_id == got_ref[0].request_id
            assert got_real[1] == pick_hint(
                queued_ready, got_real[0].bank, now
            )
            picks += 1
            # Mirror the bank-side effect of issuing the pick.
            request = got_real[0]
            banks_real[request.bank].access(request.row, now)
            banks_ref[request.bank].access(request.row, now)
            banks_real[request.bank].ready_at = now + 1
            banks_ref[request.bank].ready_at = now + 1
        now += 1
    assert len(real) == len(reference) == 0
    return picks


class TestSelectionOrderEquivalence:
    def test_frfcfs_matches_reference(self):
        rng = random.Random(1234)
        total = 0
        for trial in range(20):
            n_banks = rng.choice((1, 2, 4, 8, 16))
            batches = random_workload(
                rng, n_banks, n_rows=rng.choice((2, 4, 16)),
                n_requests=rng.randint(20, 120), arrival_ties=True,
            )
            total += drive_pair(
                FRFCFSScheduler(n_banks), ReferenceFRFCFS(n_banks),
                rng, n_banks, batches,
            )
        assert total > 500  # the property actually exercised selection

    def test_fcfs_matches_reference(self):
        rng = random.Random(4321)
        for trial in range(10):
            n_banks = rng.choice((1, 2, 4, 8))
            batches = random_workload(
                rng, n_banks, n_rows=4,
                n_requests=rng.randint(20, 80), arrival_ties=True,
            )
            drive_pair(
                FCFSScheduler(n_banks), ReferenceFCFS(n_banks),
                rng, n_banks, batches,
            )

    def test_pending_for_bank_counts(self):
        sched = FRFCFSScheduler(4)
        sched.enqueue_many([
            DRAMRequest(i, bank=i % 2, row=i, is_write=False, arrival=i)
            for i in range(6)
        ])
        assert sched.pending_for_bank(0) == 3
        assert sched.pending_for_bank(1) == 3
        assert sched.pending_for_bank(2) == 0
        assert len(sched) == 6
