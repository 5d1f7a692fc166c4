"""Unit tests for FR-FCFS / FCFS request selection."""

import pytest

from repro.dram.bank import Bank
from repro.dram.scheduler import DRAMRequest, FCFSScheduler, FRFCFSScheduler
from repro.dram.timing import gddr5_timing

T = gddr5_timing()


def req(rid, bank, row, arrival=0):
    return DRAMRequest(rid, bank=bank, row=row, is_write=False, arrival=arrival)


def banks(n=4):
    return [Bank(T) for _ in range(n)]


class TestFRFCFS:
    def test_row_hit_preferred_over_older(self):
        bs = banks()
        bs[0].access(5, 0)  # open row 5 on bank 0
        sched = FRFCFSScheduler(4)
        sched.enqueue_many([
            req(1, bank=1, row=9, arrival=0),   # older, no hit
            req(2, bank=0, row=5, arrival=10),  # newer, row hit
        ])
        picked, _ = sched.select(bs, now=100)
        assert picked.request_id == 2

    def test_hit_reordered_within_bank(self):
        bs = banks()
        bs[0].access(5, 0)
        sched = FRFCFSScheduler(4)
        sched.enqueue_many([
            req(1, bank=0, row=9, arrival=0),
            req(2, bank=0, row=5, arrival=10),
        ])
        picked, _ = sched.select(bs, now=100)
        assert picked.request_id == 2  # the hit jumps the queue

    def test_oldest_first_without_hits(self):
        bs = banks()
        sched = FRFCFSScheduler(4)
        sched.enqueue_many([
            req(1, bank=2, row=9, arrival=20),
            req(2, bank=1, row=5, arrival=5),
        ])
        picked, _ = sched.select(bs, now=100)
        assert picked.request_id == 2

    def test_busy_bank_skipped(self):
        bs = banks()
        bs[0].occupy_until(1000)
        sched = FRFCFSScheduler(4)
        sched.enqueue_many([
            req(1, bank=0, row=1, arrival=0),
            req(2, bank=1, row=1, arrival=50),
        ])
        picked, _ = sched.select(bs, now=100)
        assert picked.request_id == 2

    def test_next_ready_reported_when_all_busy(self):
        bs = banks()
        bs[0].occupy_until(500)
        bs[1].occupy_until(300)
        sched = FRFCFSScheduler(4)
        sched.enqueue_many([
            req(1, bank=0, row=1),
            req(2, bank=1, row=1),
        ])
        picked, next_ready = sched.select(bs, now=100)
        assert picked is None
        assert next_ready == 300

    def test_empty_returns_none_none(self):
        picked, next_ready = FRFCFSScheduler(4).select(banks(), 0)
        assert picked is None and next_ready is None

    def test_size_bookkeeping(self):
        sched = FRFCFSScheduler(4)
        assert len(sched) == 0
        sched.enqueue_many([
            req(1, bank=0, row=1),
            req(2, bank=0, row=2),
        ])
        assert len(sched) == 2
        assert sched.pending_for_bank(0) == 2
        sched.select(banks(), 0)
        assert len(sched) == 1

    def test_round_robin_prevents_starvation(self):
        """Equal-age requests must rotate across banks, not favor bank 0."""
        bs = banks(4)
        sched = FRFCFSScheduler(4)
        for b in range(4):
            sched.enqueue_many([
                req(b, bank=b, row=1, arrival=0),
                req(10 + b, bank=b, row=2, arrival=0),
            ])
        served = [sched.select(bs, 0)[0].bank for _ in range(4)]
        assert sorted(served) == [0, 1, 2, 3]

    def test_invalid_bank_count(self):
        with pytest.raises(ValueError):
            FRFCFSScheduler(0)


class TestFCFS:
    def test_never_reorders_for_hits(self):
        bs = banks()
        bs[0].access(5, 0)
        sched = FCFSScheduler(4)
        sched.enqueue_many([
            req(1, bank=1, row=9, arrival=0),
            req(2, bank=0, row=5, arrival=10),
        ])
        picked, _ = sched.select(bs, now=100)
        assert picked.request_id == 1  # strict arrival order

    def test_skips_busy_banks(self):
        bs = banks()
        bs[1].occupy_until(1000)
        sched = FCFSScheduler(4)
        sched.enqueue_many([
            req(1, bank=1, row=9, arrival=0),
            req(2, bank=0, row=5, arrival=10),
        ])
        picked, _ = sched.select(bs, now=100)
        assert picked.request_id == 2
