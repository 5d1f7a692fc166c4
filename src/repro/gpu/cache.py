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

    def read_miss_rate(self) -> float:
        return self.read_misses / self.reads if self.reads else 0.0

    def count_miss(self, is_write: bool) -> None:
        """Record a miss detected via ``probe`` (allocate-on-fill designs)."""
        if is_write:
            self.write_misses += 1
        else:
            self.read_misses += 1


class SetAssociativeCache:
    """A write-back, write-allocate, true-LRU set-associative cache.

    Addresses are byte addresses; the cache operates on aligned lines
    of ``line_bytes``.  ``probe`` checks presence without side effects;
    ``access`` performs the hit/allocate path and returns the evicted
    dirty line (if any) so the caller can write it back.
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
        # once for indexes below 2**64).  Precomputed here so the
        # per-access cost is a handful of shifts instead of a
        # data-dependent fold loop.  Non-power-of-two set counts keep
        # the exact legacy fold-then-modulo.
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
        # Per set: dict line_address -> [lru_counter, dirty]. Insertion
        # into a dict is cheap and we keep len <= ways.
        self._lines: List[Dict[int, List]] = [dict() for _ in range(sets)]
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
    def line_tables(self) -> List[Dict[int, List]]:
        """All live ``{line: [use, dirty]}`` set dicts, indexed by set id.

        Exposed for the functional-replay plane, which updates sets in
        place; mutating a returned dict mutates the cache.
        """
        return self._lines

    @property
    def capacity_bytes(self) -> int:
        return self._sets * self._ways * self._line_bytes

    def line_address(self, address: int) -> int:
        """The aligned line address containing byte *address*."""
        return (address >> self._line_shift) << self._line_shift

    def _set_index(self, line_address: int) -> int:
        index = line_address >> self._line_shift
        shifts = self._fold_shifts
        if shifts is not None:
            for shift in shifts:
                index ^= index >> shift
            return index & self._set_mask
        if self._hash_sets:
            folded = index
            index = 0
            while folded:
                index ^= folded
                folded >>= self._set_bits
        return index % self._sets

    def set_indices_array(self, lines: "np.ndarray") -> "np.ndarray":
        """Vectorized :meth:`_set_index` over aligned line addresses.

        Bit-identical to the scalar fold for indexes below 2**64 (all
        three paths: doubling-shift cascade, generic chunked fold, and
        plain modulo).  Used by the sampled-fidelity replay to hoist
        the set hash out of the per-op warm loops.
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

    # The per-access methods below take an optional *set_id*.  When it
    # is given, *address* must already be a line address and *set_id*
    # its :meth:`_set_index` — the detailed engine precomputes both per
    # op with :meth:`set_indices_array` when a kernel is prepared, so
    # its hot path never aligns or hashes.  Without it the method
    # aligns and hashes *address* itself.

    def probe(self, address: int, set_id: Optional[int] = None) -> bool:
        """True if the line holding *address* is present (no LRU update)."""
        if set_id is None:
            address = self.line_address(address)
            set_id = self._set_index(address)
        return address in self._lines[set_id]

    def try_read(self, address: int, set_id: Optional[int] = None) -> bool:
        """Single-pass read for allocate-on-fill designs.

        On a hit, refresh LRU, count a read hit and return True.  On a
        miss return False *without* allocating or counting — the caller
        records the miss (``stats.count_miss``) and drives the fill
        path.  Equivalent to ``probe() and access()`` but with one set
        lookup instead of two, which matters on the issue hot path.
        """
        if set_id is None:
            address = self.line_address(address)
            set_id = self._set_index(address)
        entry = self._lines[set_id].get(address)
        if entry is None:
            return False
        self._use_counter += 1
        entry[0] = self._use_counter
        self.stats.read_hits += 1
        return True

    def resident_lines(self) -> int:
        """Total lines currently cached (for invariants in tests)."""
        return sum(len(s) for s in self._lines)

    def access(
        self, address: int, is_write: bool = False,
        set_id: Optional[int] = None,
    ) -> Tuple[bool, Optional[int]]:
        """Perform a read or write access.

        Returns ``(hit, writeback_line)``.  On a miss the line is
        allocated immediately (allocate-on-access); if a dirty victim
        was evicted its line address is returned for the caller to
        write back, otherwise None.
        """
        if set_id is None:
            address = self.line_address(address)
            set_id = self._set_index(address)
        line = address
        entry_set = self._lines[set_id]
        self._use_counter += 1
        entry = entry_set.get(line)
        if entry is not None:
            entry[0] = self._use_counter
            if is_write:
                entry[1] = True
                self.stats.write_hits += 1
            else:
                self.stats.read_hits += 1
            return True, None
        if is_write:
            self.stats.write_misses += 1
        else:
            self.stats.read_misses += 1
        writeback = None
        if len(entry_set) >= self._ways:
            # LRU victim: entries are [use, dirty] with unique use
            # ticks, so comparing entries compares their ticks.
            victim_line = min(entry_set, key=entry_set.__getitem__)
            victim = entry_set.pop(victim_line)
            self.stats.evictions += 1
            if victim[1]:
                self.stats.writebacks += 1
                writeback = victim_line
        entry_set[line] = [self._use_counter, bool(is_write)]
        return False, writeback

    def fill(
        self, address: int, dirty: bool = False, set_id: Optional[int] = None
    ) -> Optional[int]:
        """Install a line without counting an access (e.g. prefetch).

        Returns a dirty victim's line address if one was evicted.
        """
        if set_id is None:
            address = self.line_address(address)
            set_id = self._set_index(address)
        line = address
        entry_set = self._lines[set_id]
        self._use_counter += 1
        entry = entry_set.get(line)
        if entry is not None:
            entry[0] = self._use_counter
            entry[1] = entry[1] or dirty
            return None
        writeback = None
        if len(entry_set) >= self._ways:
            # LRU victim: entries are [use, dirty] with unique use
            # ticks, so comparing entries compares their ticks.
            victim_line = min(entry_set, key=entry_set.__getitem__)
            victim = entry_set.pop(victim_line)
            self.stats.evictions += 1
            if victim[1]:
                self.stats.writebacks += 1
                writeback = victim_line
        entry_set[line] = [self._use_counter, dirty]
        return writeback

    def write_through(self, address: int, set_id: Optional[int] = None) -> bool:
        """Write-through, no-write-allocate store (GPU L1 policy).

        If the line is present its LRU position is refreshed and the
        store counts as a write hit; the line stays clean because the
        data is forwarded downstream anyway.  Misses are counted but
        never allocate.  Returns True on hit.
        """
        if set_id is None:
            address = self.line_address(address)
            set_id = self._set_index(address)
        entry = self._lines[set_id].get(address)
        if entry is not None:
            self._use_counter += 1
            entry[0] = self._use_counter
            self.stats.write_hits += 1
            return True
        self.stats.write_misses += 1
        return False

    def invalidate(self, address: int) -> bool:
        """Drop the line holding *address*; True if it was present."""
        line = self.line_address(address)
        return self._lines[self._set_index(line)].pop(line, None) is not None

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

    def outstanding_lines(self) -> Tuple[int, ...]:
        return tuple(self.waiters)

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
