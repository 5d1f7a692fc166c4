"""Unit tests for the set-associative cache and MSHR file."""

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.cache import CacheStats, MSHRFile, MSHROutcome, SetAssociativeCache


def cache(sets=4, ways=2, line=128, hash_sets=False):
    return SetAssociativeCache(sets, ways, line, hash_sets=hash_sets)


def set_id(c, address):
    """The set of the line holding *address*, as trace preparation
    computes it."""
    return int(c.set_indices_array(np.array([address], dtype=np.uint64))[0])


def read(c, line):
    return c.access(line, False, set_id(c, line))


def write(c, line):
    return c.access(line, True, set_id(c, line))


def probe(c, line):
    return c.probe(line, set_id(c, line))


def fill(c, line, dirty=False):
    return c.fill(line, dirty, set_id(c, line))


def resident(c):
    """Lines the cache holds, counted in its set dicts."""
    return sum(len(table) for table in c.line_tables)


class TestBasics:
    def test_cold_miss_then_hit(self):
        c = cache()
        hit, _ = read(c, 0x1000)
        assert not hit
        hit, _ = read(c, 0x1000)
        assert hit

    def test_same_line_different_offsets_hit(self):
        """Every byte of a line hashes to the line's set."""
        c = cache()
        read(c, 0x1000)
        hit, _ = c.access(0x1000, False, set_id(c, 0x1000 + 127))
        assert hit

    def test_probe_has_no_side_effects(self):
        c = cache()
        assert not probe(c, 0x1000)
        assert c.stats.accesses == 0

    def test_capacity(self):
        """4 sets x 2 ways of 128 B lines hold 1 KB, however many arrive."""
        c = cache(4, 2, 128)
        for n in range(32):
            fill(c, n * 128)
        assert resident(c) * c.line_bytes == 1024

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(0, 2, 128)
        with pytest.raises(ValueError):
            SetAssociativeCache(4, 2, 100)  # not a power of two


class TestTryRead:
    def test_miss_counts_and_allocates_nothing(self):
        c = cache()
        assert not c.try_read(0x1000, set_id(c, 0x1000))
        assert resident(c) == 0
        assert c.stats.accesses == 0  # caller records the miss

    def test_hit_counts_and_refreshes_lru(self):
        c = cache(sets=1, ways=2)
        fill(c, 0x0000)
        fill(c, 0x1000)
        assert c.try_read(0x0000, 0)  # refresh: 0x1000 is now LRU
        assert c.stats.read_hits == 1
        fill(c, 0x2000)
        assert probe(c, 0x0000)
        assert not probe(c, 0x1000)

    def test_equivalent_to_probe_then_access(self):
        """try_read == probe() + access-on-hit, in one set lookup."""
        a, b = cache(), cache()
        for c in (a, b):
            fill(c, 0x1000)
            fill(c, 0x3000)
        for addr in (0x1000, 0x2000, 0x1000, 0x3000, 0x4000):
            expected = probe(a, addr)
            if expected:
                read(a, addr)
            assert b.try_read(addr, set_id(b, addr)) == expected
        assert a.stats.read_hits == b.stats.read_hits == 3
        assert resident(a) == resident(b)


class TestLRU:
    def test_lru_eviction_order(self):
        c = cache(sets=1, ways=2)
        read(c, 0x0000)
        read(c, 0x1000)
        read(c, 0x0000)        # refresh line 0
        read(c, 0x2000)        # evicts 0x1000 (least recently used)
        assert probe(c, 0x0000)
        assert not probe(c, 0x1000)

    def test_dirty_victim_reported(self):
        c = cache(sets=1, ways=1)
        write(c, 0x0000)
        hit, writeback = read(c, 0x1000)
        assert not hit
        assert writeback == 0x0000
        assert c.stats.writebacks == 1

    def test_clean_victim_not_reported(self):
        c = cache(sets=1, ways=1)
        read(c, 0x0000)
        _, writeback = read(c, 0x1000)
        assert writeback is None
        assert c.stats.evictions == 1


class TestFillAndInvalidate:
    def test_fill_counts_no_access(self):
        c = cache()
        fill(c, 0x1000)
        assert c.stats.accesses == 0
        assert probe(c, 0x1000)

    def test_fill_merges_dirty_flag(self):
        c = cache(sets=1, ways=1)
        fill(c, 0x0000, dirty=True)
        fill(c, 0x0000, dirty=False)  # must stay dirty
        _, writeback = read(c, 0x1000)
        assert writeback == 0x0000

    def test_fill_evicts_dirty_victim(self):
        c = cache(sets=1, ways=1)
        write(c, 0x0000)
        victim = fill(c, 0x1000)
        assert victim == 0x0000


class TestWriteThrough:
    def test_hit_refreshes_but_stays_clean(self):
        c = cache(sets=1, ways=2)
        read(c, 0x0000)
        read(c, 0x1000)
        assert c.write_through(0x0000, 0)   # refresh LRU, stays clean
        _, wb = read(c, 0x2000)             # evicts 0x1000
        assert wb is None
        assert probe(c, 0x0000)

    def test_miss_does_not_allocate(self):
        c = cache()
        assert not c.write_through(0x1000, set_id(c, 0x1000))
        assert not probe(c, 0x1000)
        assert c.stats.write_misses == 1


class TestStats:
    def test_miss_rate(self):
        c = cache()
        read(c, 0x0000)
        read(c, 0x0000)
        assert c.stats.miss_rate() == pytest.approx(0.5)

    def test_empty_rates(self):
        assert cache().stats.miss_rate() == 0.0
        stats = cache().stats
        assert stats.read_misses == stats.reads == 0


class TestSetHashing:
    def test_strided_lines_spread_with_hashing(self):
        """Page-strided lines must not collapse onto one set."""
        linear = cache(sets=64, ways=8, hash_sets=False)
        hashed = cache(sets=64, ways=8, hash_sets=True)
        stride = 64 * 128  # one full wrap of the linear index
        lines = np.arange(32, dtype=np.uint64) * np.uint64(stride)
        assert len(set(linear.set_indices_array(lines).tolist())) == 1
        assert len(set(hashed.set_indices_array(lines).tolist())) > 8

    def test_hashing_preserves_hit_detection(self):
        c = cache(sets=64, ways=8, hash_sets=True)
        read(c, 0xABC00)
        assert probe(c, 0xABC00)


class TestMSHR:
    def test_new_then_merge(self):
        m = MSHRFile(2)
        assert m.allocate(0x100, "a") == MSHROutcome.NEW
        assert m.allocate(0x100, "b") == MSHROutcome.MERGED
        assert m.in_flight == 1
        assert m.complete(0x100) == ["a", "b"]
        assert m.in_flight == 0

    def test_full(self):
        m = MSHRFile(1)
        m.allocate(0x100, "a")
        assert m.allocate(0x200, "b") == MSHROutcome.FULL
        assert m.stalls == 1
        # Merging to an existing line still works when full.
        assert m.allocate(0x100, "c") == MSHROutcome.MERGED

    def test_complete_unknown_line(self):
        with pytest.raises(KeyError):
            MSHRFile(2).complete(0x500)

    def test_outstanding_lines(self):
        m = MSHRFile(4)
        m.allocate(0x100, "a")
        m.allocate(0x200, "b")
        assert set(m.waiters) == {0x100, 0x200}

    def test_zero_entries_rejected(self):
        with pytest.raises(ValueError):
            MSHRFile(0)


@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.tuples(st.integers(min_value=0, max_value=50), st.booleans()),
    min_size=1, max_size=200,
))
def test_cache_invariants(accesses):
    """Properties: residency never exceeds capacity; counters balance."""
    c = SetAssociativeCache(4, 2, 128, hash_sets=True)
    for line_no, is_write in accesses:
        line = line_no * 128
        c.access(line, is_write, set_id(c, line))
    assert resident(c) <= 8
    assert c.stats.accesses == len(accesses)
    assert c.stats.misses + c.stats.read_hits + c.stats.write_hits == len(accesses)
    assert c.stats.writebacks <= c.stats.evictions


class ReferenceLRU:
    """The cache's policy, written plainly: per set, an ordered dict of
    line -> dirty flag, moved to the end on every touch."""

    def __init__(self, sets, ways, line_bytes):
        self.sets = [OrderedDict() for _ in range(sets)]
        self.ways = ways
        self.line_bytes = line_bytes
        self.stats = CacheStats()

    def _set(self, line):
        return self.sets[line // self.line_bytes % len(self.sets)]

    def _touch(self, line, dirty=False):
        """Refresh a resident line; True if it was resident."""
        entries = self._set(line)
        if line not in entries:
            return False
        entries[line] = entries.pop(line) or bool(dirty)
        return True

    def _install(self, line, dirty):
        """Insert a missing line; return the dirty victim, if any."""
        entries = self._set(line)
        writeback = None
        if len(entries) >= self.ways:
            victim, victim_dirty = entries.popitem(last=False)
            self.stats.evictions += 1
            if victim_dirty:
                self.stats.writebacks += 1
                writeback = victim
        entries[line] = bool(dirty)
        return writeback

    def access(self, line, is_write):
        if self._touch(line, is_write):
            if is_write:
                self.stats.write_hits += 1
            else:
                self.stats.read_hits += 1
            return True, None
        if is_write:
            self.stats.write_misses += 1
        else:
            self.stats.read_misses += 1
        return False, self._install(line, is_write)

    def try_read(self, line):
        hit = self._touch(line)
        self.stats.read_hits += hit
        return hit

    def fill(self, line, dirty):
        if self._touch(line, dirty):
            return None
        return self._install(line, dirty)

    def write_through(self, line):
        hit = self._touch(line)  # a hit keeps a dirty line dirty
        if hit:
            self.stats.write_hits += 1
        else:
            self.stats.write_misses += 1
        return hit

    def contents(self):
        return [list(entries.items()) for entries in self.sets]


# Flags as callers pass them: bools, ints and numpy bools.
_FLAGS = st.sampled_from([False, True, 0, 1, np.bool_(False), np.bool_(True)])
_OPS = st.one_of(
    st.tuples(st.just("access"), st.integers(0, 23), _FLAGS),
    st.tuples(st.just("try_read"), st.integers(0, 23), st.none()),
    st.tuples(st.just("fill"), st.integers(0, 23), _FLAGS),
    st.tuples(st.just("write_through"), st.integers(0, 23), st.none()),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_OPS, max_size=300))
def test_matches_reference_lru(ops):
    """Every return value, the stats and each set's (line, dirty)
    contents in recency order match the reference model, over random
    mixes of the four access paths — including read and write-through
    hits on dirty lines, which must leave them dirty."""
    sets, ways, line_bytes = 4, 3, 128
    cache = SetAssociativeCache(sets, ways, line_bytes, hash_sets=False)
    model = ReferenceLRU(sets, ways, line_bytes)
    for name, line_no, flag in ops:
        line = line_no * line_bytes
        index = set_id(cache, line)
        if name == "access":
            got = cache.access(line, flag, index)
            expected = model.access(line, flag)
        elif name == "fill":
            got, expected = cache.fill(line, flag, index), model.fill(line, flag)
        else:
            got = getattr(cache, name)(line, index)
            expected = getattr(model, name)(line)
        assert got == expected, (name, line)
    assert cache.stats == model.stats
    contents = []
    for entries in cache.line_tables:
        assert all(type(entry) is int for entry in entries.values())
        ordered = sorted(entries.items(), key=lambda item: item[1])
        contents.append([(line, bool(entry & 1)) for line, entry in ordered])
    assert contents == model.contents()
