"""Set-associative caches with MSHRs (L1 data cache and LLC slices).

The cache model is state-accurate (tags, true LRU, dirty bits) and
timing-agnostic: the surrounding units decide *when* to call it.
Misses allocate on access; the victim (if dirty) is reported so the
caller can emit a writeback.

An :class:`MSHRFile` tracks outstanding line fetches so that secondary
misses to an in-flight line merge instead of issuing duplicate DRAM
requests — essential for GPU workloads where many warps touch the
same lines nearly simultaneously.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["CacheStats", "SetAssociativeCache", "MSHRFile", "MSHROutcome"]


@dataclass
class CacheStats:
    """Hit/miss/traffic counters for one cache."""

    read_hits: int = 0
    read_misses: int = 0
    write_hits: int = 0
    write_misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def reads(self) -> int:
        return self.read_hits + self.read_misses

    @property
    def writes(self) -> int:
        return self.write_hits + self.write_misses

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def misses(self) -> int:
        return self.read_misses + self.write_misses

    def miss_rate(self) -> float:
        """Misses over all accesses (the paper's Fig. 13b metric)."""
        return self.misses / self.accesses if self.accesses else 0.0


class SetAssociativeCache:
    """A write-back, write-allocate, true-LRU set-associative cache.

    Every access names an aligned line and its set id from
    :meth:`set_indices_array`.  ``probe`` checks presence without side
    effects; ``access`` performs the hit/allocate path and returns the
    evicted dirty line (if any) so the caller can write it back.
    """

    def __init__(
        self,
        sets: int,
        ways: int,
        line_bytes: int,
        name: str = "cache",
        hash_sets: bool = True,
    ) -> None:
        if sets <= 0 or ways <= 0:
            raise ValueError(f"sets and ways must be positive, got {sets}x{ways}")
        if line_bytes <= 0 or line_bytes & (line_bytes - 1):
            raise ValueError(f"line_bytes must be a positive power of two, got {line_bytes}")
        self.name = name
        self._sets = sets
        self._ways = ways
        self._line_bytes = line_bytes
        self._line_shift = line_bytes.bit_length() - 1
        # GPU caches hash the set index (XOR-folding the tag bits) so
        # that power-of-two strides do not collapse onto one set.
        self._hash_sets = hash_sets
        self._set_bits = max(1, (sets - 1).bit_length())
        # Fast set-index path: for power-of-two set counts the chunked
        # XOR fold reduces to a fixed doubling-shift cascade plus a
        # mask (each b-bit chunk of the index is XORed into the low b
        # bits; shift subsets enumerate every chunk offset exactly
        # once for indexes below 2**64).  Precomputed here so hashing
        # costs a handful of array shifts instead of a data-dependent
        # fold loop.  Non-power-of-two set counts keep the exact
        # legacy fold-then-modulo.
        self._set_mask = sets - 1
        if hash_sets and sets & (sets - 1) == 0:
            shifts: List[int] = []
            shift = self._set_bits
            while shift < 64:
                shifts.append(shift)
                shift <<= 1
            self._fold_shifts: Optional[Tuple[int, ...]] = tuple(reversed(shifts))
        else:
            self._fold_shifts = None
        # Per set: dict line_address -> use << 1 | dirty (see
        # line_tables); we keep len <= ways.
        self._lines: List[Dict[int, int]] = [dict() for _ in range(sets)]
        self._use_counter = 0
        self.stats = CacheStats()

    @property
    def sets(self) -> int:
        return self._sets

    @property
    def ways(self) -> int:
        return self._ways

    @property
    def line_bytes(self) -> int:
        return self._line_bytes

    @property
    def use_counter(self) -> int:
        """The current LRU tick (monotone; only relative order matters)."""
        return self._use_counter

    def sync_use_counter(self, value: int) -> None:
        """Advance the LRU tick to at least *value*.

        The functional-replay plane (:mod:`repro.sim.replay`) stamps
        ops with per-stream positions instead of per-bump ticks;
        afterwards it fast-forwards the counter past every stamp so
        later accesses stay the most recent.  Never moves the counter
        backwards.
        """
        if value > self._use_counter:
            self._use_counter = value

    @property
    def line_tables(self) -> List[Dict[int, int]]:
        """All live ``{line: use << 1 | dirty}`` set dicts, by set id.

        An entry is one int, the line's last-use tick above its dirty
        bit (0 or 1), so installing a line allocates no container.
        Ticks are unique within a cache, so a set's smallest entry is
        its LRU line.  Exposed for the functional-replay plane, which
        updates sets in place; mutating a returned dict mutates the
        cache.
        """
        return self._lines

    def set_indices_array(self, lines: "np.ndarray") -> "np.ndarray":
        """The set id of each aligned line address in *lines*.

        The line index is XOR-folded in set-index-wide chunks, then
        taken modulo the set count (plain modulo without ``hash_sets``).
        Trace preparation and the functional replay hash every op here,
        once, so no per-access method hashes.
        """
        index = np.asarray(lines, dtype=np.uint64) >> np.uint64(self._line_shift)
        shifts = self._fold_shifts
        if shifts is not None:
            for shift in shifts:
                index = index ^ (index >> np.uint64(shift))
            return (index & np.uint64(self._set_mask)).astype(np.int64)
        if self._hash_sets:
            folded = index
            index = np.zeros_like(folded)
            bits = np.uint64(self._set_bits)
            while folded.any():
                index ^= folded
                folded = folded >> bits
        return (index % np.uint64(self._sets)).astype(np.int64)

    # The per-access methods below take an aligned *line* address and
    # its *set_id* from :meth:`set_indices_array`: the detailed engine
    # precomputes both per op when a kernel is prepared, so its hot
    # path never aligns or hashes.

    def probe(self, line: int, set_id: int) -> bool:
        """True if *line* is present (no LRU update)."""
        return line in self._lines[set_id]

    def try_read(self, line: int, set_id: int) -> bool:
        """Single-pass read for allocate-on-fill designs.

        On a hit, refresh LRU, count a read hit and return True.  On a
        miss return False *without* allocating or counting — the caller
        counts the miss (``stats.read_misses``) and drives the fill
        path.  Equivalent to ``probe() and access()`` but with one set
        lookup instead of two, which matters on the issue hot path.
        """
        entry_set = self._lines[set_id]
        entry = entry_set.get(line)
        if entry is None:
            return False
        use = self._use_counter = self._use_counter + 1
        entry_set[line] = use << 1 | entry & 1
        self.stats.read_hits += 1
        return True

    def access(
        self, line: int, is_write: bool, set_id: int
    ) -> Tuple[bool, Optional[int]]:
        """Perform a read or write access.

        Returns ``(hit, writeback_line)``.  On a miss the line is
        allocated immediately (allocate-on-access); if a dirty victim
        was evicted its line address is returned for the caller to
        write back, otherwise None.
        """
        entry_set = self._lines[set_id]
        use = self._use_counter = self._use_counter + 1
        entry = entry_set.get(line)
        if entry is not None:
            if is_write:
                entry_set[line] = use << 1 | 1
                self.stats.write_hits += 1
            else:
                entry_set[line] = use << 1 | entry & 1
                self.stats.read_hits += 1
            return True, None
        if is_write:
            self.stats.write_misses += 1
        else:
            self.stats.read_misses += 1
        writeback = None
        if len(entry_set) >= self._ways:
            # LRU victim: ticks are unique, so the smallest entry is
            # the least recently used line.
            victim_line = min(entry_set, key=entry_set.__getitem__)
            victim = entry_set.pop(victim_line)
            self.stats.evictions += 1
            if victim & 1:
                self.stats.writebacks += 1
                writeback = victim_line
        entry_set[line] = use << 1 | (1 if is_write else 0)
        return False, writeback

    def fill(self, line: int, dirty: bool, set_id: int) -> Optional[int]:
        """Install a line without counting an access (e.g. prefetch).

        Returns a dirty victim's line address if one was evicted.
        """
        entry_set = self._lines[set_id]
        use = self._use_counter = self._use_counter + 1
        dirty = 1 if dirty else 0
        entry = entry_set.get(line)
        if entry is not None:
            entry_set[line] = use << 1 | entry & 1 | dirty
            return None
        writeback = None
        if len(entry_set) >= self._ways:
            # LRU victim: ticks are unique, so the smallest entry is
            # the least recently used line.
            victim_line = min(entry_set, key=entry_set.__getitem__)
            victim = entry_set.pop(victim_line)
            self.stats.evictions += 1
            if victim & 1:
                self.stats.writebacks += 1
                writeback = victim_line
        entry_set[line] = use << 1 | dirty
        return writeback

    def write_through(self, line: int, set_id: int) -> bool:
        """Write-through, no-write-allocate store (GPU L1 policy).

        If the line is present its LRU position is refreshed and the
        store counts as a write hit; the line stays clean because the
        data is forwarded downstream anyway.  Misses are counted but
        never allocate.  Returns True on hit.
        """
        entry_set = self._lines[set_id]
        entry = entry_set.get(line)
        if entry is not None:
            use = self._use_counter = self._use_counter + 1
            entry_set[line] = use << 1 | entry & 1
            self.stats.write_hits += 1
            return True
        self.stats.write_misses += 1
        return False

    def __repr__(self) -> str:
        return (
            f"SetAssociativeCache({self.name!r}, {self._sets}x{self._ways}, "
            f"{self._line_bytes}B lines, miss_rate={self.stats.miss_rate():.3f})"
        )


class MSHROutcome:
    """Result categories of an MSHR allocation attempt."""

    NEW = "new"  # first miss to the line: fetch must be issued
    MERGED = "merged"  # line already in flight: no new fetch
    FULL = "full"  # no MSHR available: requester must stall


class MSHRFile:
    """Miss Status Holding Registers: outstanding line fetches.

    Each entry tracks one in-flight line and the opaque waiter tokens
    to notify on fill.
    """

    def __init__(self, entries: int, name: str = "mshr") -> None:
        if entries <= 0:
            raise ValueError(f"need at least one MSHR entry, got {entries}")
        self.name = name
        self._entries = entries
        # line -> waiter tokens, one entry per in-flight fetch.  Public
        # for read-only use: the SM and LLC fill paths test
        # ``len(waiters) < capacity`` directly, frame-free.
        self.waiters: Dict[int, List[object]] = {}
        self.allocations = 0
        self.merges = 0
        self.stalls = 0

    @property
    def capacity(self) -> int:
        return self._entries

    @property
    def in_flight(self) -> int:
        return len(self.waiters)

    def allocate(self, line_address: int, waiter: object) -> str:
        """Try to register *waiter* for *line_address*.

        Returns an :class:`MSHROutcome` constant.  ``FULL`` means the
        caller must retry later; nothing was recorded.
        """
        pending = self.waiters
        waiters = pending.get(line_address)
        if waiters is not None:
            waiters.append(waiter)
            self.merges += 1
            return MSHROutcome.MERGED
        if len(pending) >= self._entries:
            self.stalls += 1
            return MSHROutcome.FULL
        pending[line_address] = [waiter]
        self.allocations += 1
        return MSHROutcome.NEW

    def complete(self, line_address: int) -> List[object]:
        """Retire the entry for *line_address*, returning its waiters."""
        try:
            return self.waiters.pop(line_address)
        except KeyError:
            raise KeyError(
                f"{self.name}: no outstanding fetch for line 0x{line_address:x}"
            ) from None

    def __repr__(self) -> str:
        return f"MSHRFile({self.name!r}, {self.in_flight}/{self._entries} in flight)"
