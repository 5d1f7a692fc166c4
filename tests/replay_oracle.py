"""Per-op reference loops for the functional-replay plane.

:mod:`repro.sim.replay` replays an op stream through the warmed L1,
LLC and DRAM-row state with one pass over all caches at once.  The
functions here are the loops it replaced, kept as its oracle: every
cache sees its own sub-stream in op order, every LRU bump takes the
next tick of that cache's counter, and every bank replays its own row
stream.  ``tests/sim/test_replay_equiv.py`` pins the production plane
to them.

:func:`replay_ops` has the signature of
:func:`repro.sim.replay.replay_ops`, so a test can monkeypatch it in
and run a whole system on the oracle.
"""

from typing import List, Tuple

import numpy as np

from repro.sim import replay as replay_plane


def _aligned(cache, lines, set_ids):
    """*lines* aligned plus their set indices, unless *set_ids* is given.

    When *set_ids* is given it must be the precomputed
    :meth:`~repro.gpu.cache.SetAssociativeCache.set_indices_array` of
    already-aligned *lines*.
    """
    if set_ids is None:
        lines = [cache.line_address(address) for address in lines]
        set_ids = [cache._set_index(line) for line in lines]
    return lines, set_ids


def warm_through_many(cache, lines, writes, set_ids=None) -> List[int]:
    """Replay accesses through *cache* under the L1 policy.

    Write-through, no-write-allocate; read misses fill.  Returns the
    positions forwarded downstream: every write plus every read miss.
    Victims are never dirty under this policy, so nothing is written
    back.
    """
    lines, set_ids = _aligned(cache, lines, set_ids)
    forwarded: List[int] = []
    sets = cache.line_tables
    use = cache.use_counter
    stats = cache.stats
    for position, line in enumerate(lines):
        entry_set = sets[set_ids[position]]
        entry = entry_set.get(line)
        if writes[position]:
            if entry is not None:
                use += 1
                entry[0] = use
                stats.write_hits += 1
            else:
                stats.write_misses += 1
            forwarded.append(position)
            continue
        if entry is not None:
            use += 1
            entry[0] = use
            stats.read_hits += 1
            continue
        stats.read_misses += 1
        use += 1
        if len(entry_set) >= cache.ways:
            entry_set.pop(min(entry_set, key=entry_set.__getitem__))
            stats.evictions += 1
        entry_set[line] = [use, False]
        forwarded.append(position)
    cache.sync_use_counter(use)
    return forwarded


def warm_back_many(cache, lines, writes, set_ids=None) -> Tuple[List[int], List[int]]:
    """Replay accesses through *cache* under the LLC policy.

    Write-back, write-allocate; full-line stores install dirty without
    a fetch.  Returns ``(read_miss_positions, writeback_lines)``: the
    positions whose lines must be fetched from DRAM, and the dirty
    victim lines evicted along the way, in eviction order.
    """
    lines, set_ids = _aligned(cache, lines, set_ids)
    read_miss_positions: List[int] = []
    writebacks: List[int] = []
    sets = cache.line_tables
    use = cache.use_counter
    stats = cache.stats
    for position, line in enumerate(lines):
        entry_set = sets[set_ids[position]]
        entry = entry_set.get(line)
        is_write = bool(writes[position])
        use += 1
        if entry is not None:
            entry[0] = use
            if is_write:
                entry[1] = True
                stats.write_hits += 1
            else:
                stats.read_hits += 1
            continue
        if is_write:
            stats.write_misses += 1
        else:
            stats.read_misses += 1
            read_miss_positions.append(position)
        if len(entry_set) >= cache.ways:
            victim_line = min(entry_set, key=entry_set.__getitem__)
            victim = entry_set.pop(victim_line)
            stats.evictions += 1
            if victim[1]:
                stats.writebacks += 1
                writebacks.append(victim_line)
        entry_set[line] = [use, is_write]
    cache.sync_use_counter(use)
    return read_miss_positions, writebacks


def replay_rows(bank, rows) -> None:
    """Replay an ordered row stream through *bank*'s row buffer.

    Every in-stream row change is a conflict (precharge + activate),
    an unchanged row a hit; the first access is classified against
    the open row.  Timing state is untouched.
    """
    rows = np.asarray(rows)
    n = len(rows)
    if not n:
        return
    changes = int(np.count_nonzero(rows[1:] != rows[:-1]))
    if bank.open_row is None:
        bank.row_misses += 1
        first_activates, first_precharges = 1, 0
    elif bank.open_row == int(rows[0]):
        bank.row_hits += 1
        first_activates, first_precharges = 0, 0
    else:
        bank.row_conflicts += 1
        first_activates, first_precharges = 1, 1
    bank.row_hits += n - 1 - changes
    bank.row_conflicts += changes
    bank.activates += changes + first_activates
    bank.precharges += changes + first_precharges
    bank.open_row = int(rows[-1])


def replay_traffic(controller, banks, rows, n_reads: int, n_writes: int) -> None:
    """Replay decoded DRAM traffic through one channel, bank by bank.

    Each bank's sub-stream (order preserved) goes through
    :func:`replay_rows`; the read/write, request and bus-occupancy
    counters grow as if the bursts had transferred.
    """
    banks = np.asarray(banks)
    rows = np.asarray(rows)
    for bank_id in np.unique(banks).tolist():
        replay_rows(controller.banks[bank_id], rows[banks == bank_id])
    controller.reads += n_reads
    controller.writes += n_writes
    controller.requests_seen += n_reads + n_writes
    controller.busy_cycles += (n_reads + n_writes) * controller._timing.t_burst


def replay_ops(
    system, sm_ids, lines, channels, banks, rows, slice_ids, writes
) -> Tuple[int, int]:
    """Replay an ordered op stream through *system*'s hierarchy.

    L1 filtering happens per SM (each SM sees its own sub-stream, order
    preserved), the surviving traffic per LLC slice, and the resulting
    DRAM reads plus dirty-victim writebacks per channel: read fetches
    first, then writebacks, each in slice-major order.  Returns
    ``(ops_replayed, estimated_noc_flits)``.
    """
    total_ops = len(lines)
    if not total_ops:
        return 0, 0
    sm_arr = np.asarray(sm_ids, dtype=np.int64)
    lines_arr = np.asarray(lines, dtype=np.uint64)
    writes_arr = np.asarray(writes, dtype=bool)
    l1_set_ids = system.sms[0].l1.set_indices_array(lines_arr)
    keep = np.zeros(total_ops, dtype=bool)
    for sm_id in np.unique(sm_arr).tolist():
        positions = np.flatnonzero(sm_arr == sm_id)
        kept = warm_through_many(
            system.sms[sm_id].l1,
            lines_arr[positions].tolist(),
            writes_arr[positions].tolist(),
            l1_set_ids[positions].tolist(),
        )
        keep[positions[kept]] = True
    forwarded = np.flatnonzero(keep)
    if not forwarded.size:
        return total_ops, 0
    noc_flits = replay_plane._noc_flits_for(
        system, forwarded.size, int(writes_arr[forwarded].sum())
    )

    slice_arr = np.asarray(slice_ids, dtype=np.int64)[forwarded]
    llc_set_ids = system.slices[0].cache.set_indices_array(lines_arr[forwarded])
    missed_parts: List[np.ndarray] = []
    victim_lines: List[int] = []
    for slice_id in np.unique(slice_arr).tolist():
        relative = np.flatnonzero(slice_arr == slice_id)
        positions = forwarded[relative]
        miss_positions, victims = warm_back_many(
            system.slices[slice_id].cache,
            lines_arr[positions].tolist(),
            writes_arr[positions].tolist(),
            llc_set_ids[relative].tolist(),
        )
        missed_parts.append(positions[miss_positions])
        victim_lines.extend(victims)
    missed = np.concatenate(missed_parts).astype(np.int64)
    read_ch = np.asarray(channels, dtype=np.int64)[missed]
    read_banks = np.asarray(banks, dtype=np.int64)[missed]
    read_rows = np.asarray(rows, dtype=np.int64)[missed]
    if victim_lines:
        wb_ch, wb_banks, wb_rows = replay_plane._decode_writebacks(
            system, np.asarray(victim_lines, dtype=np.uint64)
        )
    else:
        wb_ch = wb_banks = wb_rows = np.empty(0, dtype=np.int64)
    for channel, controller in enumerate(system.dram.controllers):
        is_read = read_ch == channel
        is_wb = wb_ch == channel
        n_reads, n_writes = int(is_read.sum()), int(is_wb.sum())
        if n_reads or n_writes:
            replay_traffic(
                controller,
                np.concatenate([read_banks[is_read], wb_banks[is_wb]]),
                np.concatenate([read_rows[is_read], wb_rows[is_wb]]),
                n_reads, n_writes,
            )
    return total_ops, noc_flits
