"""Last-level cache slice.

The paper's 512 KB LLC is split into 8 slices attached to the four
memory controllers (two slices per controller).  The slice servicing
a request is selected by bits of the *mapped* address, so address
mapping directly controls LLC-slice load balance — the mechanism
behind the Fig. 14a LLC-level-parallelism results.

Each slice is a write-back, write-allocate cache with MSHRs:

* **read**: hit responds after the slice latency; miss allocates an
  MSHR (merging secondaries) and fetches the line from DRAM.
* **write** (write-through traffic from the L1s): hits dirty the line;
  misses allocate the line dirty *without* a DRAM fetch — warp stores
  are full-line coalesced transactions, so fetching would be wasted.
* dirty evictions emit fire-and-forget DRAM writebacks.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.engine import Engine
from .cache import MSHRFile, MSHROutcome, SetAssociativeCache
from .config import GPUConfig
from .sm import MemRequest

__all__ = ["LLCSlice"]


class LLCSlice:
    """One LLC slice plus its MSHRs and DRAM-side plumbing."""

    def __init__(
        self,
        engine: "Engine",
        config: GPUConfig,
        slice_id: int,
        send_response: Callable[[MemRequest], None],
        submit_dram_read: Callable[[MemRequest], None],
        submit_dram_writeback: Callable[[int], None],
    ) -> None:
        """*send_response* returns a filled read to its SM;
        *submit_dram_read* fetches a missed line;
        *submit_dram_writeback* takes a dirty victim's line address."""
        self._engine = engine
        self.slice_id = slice_id
        self._send_response = send_response
        self._submit_dram_read = submit_dram_read
        self._submit_dram_writeback = submit_dram_writeback
        self.cache = SetAssociativeCache(
            config.llc_sets_per_slice,
            config.llc_ways,
            config.line_bytes,
            name=f"LLC[{slice_id}]",
        )
        self.mshr = MSHRFile(config.llc_mshrs_per_slice, name=f"LLC-MSHR[{slice_id}]")
        self._stalled: Deque[MemRequest] = deque()
        self.outstanding = 0  # reads in flight at this slice
        self._latency = config.llc_latency
        self._mshr_capacity = config.llc_mshrs_per_slice
        # Pre-bound for the engine's closure-free scheduling.
        self._respond_cb = self._respond

    # ------------------------------------------------------------------
    # Request handling (arrivals from the request NoC)
    # ------------------------------------------------------------------
    def on_read(self, request: MemRequest) -> None:
        """A read request arrived at this slice."""
        self.outstanding += 1
        cache = self.cache
        if cache.try_read(request.line, request.llc_set):
            self._engine.after_call(self._latency, self._respond_cb, request)
            return
        cache.stats.read_misses += 1
        self._allocate_and_fetch(request)

    def on_write(self, line: int, set_id: int) -> None:
        """A write-through store arrived (full-line, no response needed).

        *set_id* is the line's precomputed set index in this slice.
        """
        cache = self.cache
        if cache.probe(line, set_id):
            cache.access(line, True, set_id)
            return
        cache.stats.write_misses += 1
        # Install the full-line store immediately. If the line is also
        # being fetched for readers, the later fill merges into the
        # resident entry (keeping it dirty), so there is no race.
        victim = cache.fill(line, True, set_id)
        if victim is not None:
            self._submit_dram_writeback(victim)

    def _allocate_and_fetch(self, request: MemRequest) -> None:
        outcome = self.mshr.allocate(request.line, request)
        if outcome == MSHROutcome.FULL:
            self._stalled.append(request)
        elif outcome == MSHROutcome.NEW:
            self._submit_dram_read(request)
        # MERGED: nothing to do; the in-flight fetch covers us.

    # ------------------------------------------------------------------
    # DRAM side
    # ------------------------------------------------------------------
    def on_dram_fill(self, line: int, set_id: int) -> None:
        """The DRAM read for *line* completed: fill, respond, retry.

        *set_id* is the line's precomputed set index in this slice.
        """
        victim = self.cache.fill(line, False, set_id)
        if victim is not None:
            self._submit_dram_writeback(victim)
        send_response = self._send_response
        for request in self.mshr.complete(line):
            self.outstanding -= 1
            send_response(request)
        stalled = self._stalled
        if stalled:
            in_flight = self.mshr.waiters
            capacity = self._mshr_capacity
            while stalled and len(in_flight) < capacity:
                waiting = stalled.popleft()
                if self.cache.try_read(waiting.line, waiting.llc_set):
                    self._engine.after_call(
                        self._latency, self._respond_cb, waiting
                    )
                else:
                    self._allocate_and_fetch(waiting)

    def _respond(self, request: MemRequest) -> None:
        self.outstanding -= 1
        self._send_response(request)

    def detach(self) -> None:
        """Drop the callbacks that close reference cycles through this
        slice once the run is over; the cache and counters stay."""
        self._respond_cb = self._send_response = None
        self._submit_dram_read = self._submit_dram_writeback = None

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def miss_rate(self) -> float:
        return self.cache.stats.miss_rate()

    def __repr__(self) -> str:
        return (
            f"LLCSlice({self.slice_id}, outstanding={self.outstanding}, "
            f"miss_rate={self.miss_rate():.3f})"
        )
