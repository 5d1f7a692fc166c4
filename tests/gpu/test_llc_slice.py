"""Direct unit tests for the LLC slice unit."""

import numpy as np

from repro.gpu.config import GPUConfig
from repro.gpu.llc import LLCSlice
from repro.gpu.sm import MemRequest
from repro.sim.engine import Engine


class Harness:
    def __init__(self, mshrs=2, latency=10):
        self.engine = Engine()
        config = GPUConfig(llc_mshrs_per_slice=mshrs, llc_latency=latency)
        self.responses = []
        self.dram_reads = []
        self.writebacks = []
        self.slice = LLCSlice(
            self.engine, config, 0,
            send_response=self.responses.append,
            submit_dram_read=self.dram_reads.append,
            submit_dram_writeback=self.writebacks.append,
        )

    def set_id(self, line):
        """*line*'s set in the slice, as trace preparation computes it."""
        lines = np.array([line], dtype=np.uint64)
        return int(self.slice.cache.set_indices_array(lines)[0])

    def read(self, line):
        """A read of *line* arrives (its L1 set is never looked at here)."""
        self.slice.on_read(MemRequest(
            sm_id=0, line=line, channel=0, bank=0, row=0, slice_id=0,
            issued_at=0, l1_set=0, llc_set=self.set_id(line),
        ))

    def write(self, line):
        self.slice.on_write(line, self.set_id(line))

    def dram_fill(self, line):
        self.slice.on_dram_fill(line, self.set_id(line))


class TestReads:
    def test_miss_fetches_from_dram(self):
        h = Harness()
        h.read(0x1000)
        assert len(h.dram_reads) == 1
        assert h.slice.outstanding == 1

    def test_fill_responds_to_waiters(self):
        h = Harness()
        h.read(0x1000)
        h.read(0x1000)  # merges
        assert len(h.dram_reads) == 1
        h.dram_fill(0x1000)
        h.engine.run()
        assert len(h.responses) == 2
        assert h.slice.outstanding == 0

    def test_hit_responds_after_latency(self):
        h = Harness(latency=25)
        h.read(0x1000)
        h.dram_fill(0x1000)
        h.engine.run()
        t0 = h.engine.now
        h.read(0x1000)
        h.engine.run()
        assert len(h.responses) == 2
        assert h.engine.now - t0 == 25

    def test_mshr_full_stalls_then_retries(self):
        h = Harness(mshrs=1)
        h.read(0x1000)
        h.read(0x2000)  # MSHRs full -> parked
        assert len(h.dram_reads) == 1
        h.dram_fill(0x1000)
        h.engine.run()
        assert len(h.dram_reads) == 2  # parked request fetched


class TestWrites:
    def test_write_miss_allocates_dirty_without_fetch(self):
        h = Harness()
        h.write(0x1000)
        assert not h.dram_reads  # full-line store: no fetch
        assert h.slice.cache.probe(0x1000, h.set_id(0x1000))
        assert h.slice.cache.stats.write_misses == 1

    def test_dirty_eviction_writes_back(self):
        h = Harness()
        # Fill one set beyond capacity with dirty lines: set-conflicting
        # addresses under the hashed index are found by brute force.
        lines = np.arange(0, 1 << 22, 128, dtype=np.uint64)
        set_ids = h.slice.cache.set_indices_array(lines)
        conflicting = lines[set_ids == set_ids[0]][: h.slice.cache.ways + 1]
        for line in conflicting.tolist():
            h.write(line)
        assert len(h.writebacks) == 1

    def test_write_hit_dirties_resident_line(self):
        h = Harness()
        h.read(0x1000)
        h.dram_fill(0x1000)
        h.engine.run()
        h.write(0x1000)
        assert h.slice.cache.stats.write_hits == 1
