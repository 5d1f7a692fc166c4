"""The functional-replay plane of sampled and auto fidelity.

Sampled and auto fidelity skip part of a workload's detailed
simulation — estimated kernels, and the frozen remainder of measured
ones — but the skipped ops must still warm the memory hierarchy for
the kernels that follow.  :func:`replay_ops` pushes an ordered op
stream through that state with no engine events:

1. one per-op pass over the live set dicts of every SM's L1
   (write-through, no-write-allocate), yielding the ops forwarded
   downstream (:func:`warm_through`);
2. the same pass over the LLC slices (write-back, write-allocate),
   yielding the read misses and dirty victims (:func:`warm_back`);
3. one array pass per channel over the decoded DRAM traffic
   (:meth:`~repro.dram.controller.MemoryController.replay_traffic`).

**Equivalence contract.**  The per-cache, per-bank loops this plane
replaced live on as the oracle in ``tests/replay_oracle.py``, and
``tests/sim/test_replay_equiv.py`` pins the two to identical
*observable* state: every stats counter (cache hits/misses, evictions,
writebacks, DRAM activates/row-hits/conflicts, power-model inputs),
the forwarded-op set, the DRAM traffic streams (order included), the
open rows, and the resident (line, dirty) contents of every cache set
in the same recency order.  Only the internal LRU tick values differ:
op ``p`` is stamped with its stream position instead of the next tick
of a per-bump counter.  That is unobservable — victim selection
depends only on the relative recency order *within* a set, and the
absolute counter never reaches a report.

The module also owns the **kernel-stream** form of whole TBs, used by
the cross-run warmed-state cache
(:class:`~repro.runner.state_cache.StateCache`): a TB sequence's
replay stream as raw (pre-mapping) addresses plus TB ordinals.  The
stream is a pure function of the workload and the machine geometry —
never of the mapping scheme (fingerprints and interleave order are
scheme-independent), which is exactly why it can be cached without
the scheme in its key; each scheme's run maps the raw addresses once
(one GF(2) pass) and replays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "replay_ops",
    "warm_through",
    "warm_back",
    "interleave_order",
    "KernelStream",
    "build_kernel_stream",
]


# ----------------------------------------------------------------------
# Set-associative warm passes
# ----------------------------------------------------------------------
def _warm(
    caches: Sequence,
    cache_ids: np.ndarray,
    lines: np.ndarray,
    writes: np.ndarray,
    set_ids: np.ndarray,
    write_back: bool,
):
    """One per-op pass of a stream over several same-geometry caches.

    ``cache_ids[p]`` picks op ``p``'s cache and ``set_ids[p]`` its set.
    Returns per-op outcome arrays ``(hit, evicted, wb_line)`` —
    ``wb_line`` (write-back policy only) holds the dirty victim's line
    address or -1.

    Recency stamps: op ``p`` touching its set is stamped ``base(cache)
    + 1 + p``, strictly increasing in op order per cache, so the
    relative LRU order inside every set matches a per-bump counter's
    exactly even though the absolute values differ (see module
    docstring).  Afterwards each touched cache's counter is advanced
    past every stamp.
    """
    n = int(lines.size)
    hit = np.zeros(n, dtype=bool)
    evicted = np.zeros(n, dtype=bool)
    wb_line = np.full(n, -1, dtype=np.int64) if write_back else None
    bases = [c.use_counter for c in caches]
    ways = caches[0].ways
    tables = [c.line_tables for c in caches]
    cid_l = cache_ids.tolist()
    lines_l = lines.tolist()
    writes_l = writes.tolist()
    sid_l = set_ids.tolist()
    hit_pos: List[int] = []
    ev_pos: List[int] = []
    wb_pos: List[int] = []
    wb_victims: List[int] = []
    hit_append = hit_pos.append
    for p in range(n):
        c = cid_l[p]
        entry_set = tables[c][sid_l[p]]
        line = lines_l[p]
        entry = entry_set.get(line)
        if entry is not None:
            hit_append(p)
            entry[0] = bases[c] + 1 + p
            if write_back and writes_l[p]:
                entry[1] = True
            continue
        if not write_back and writes_l[p]:
            continue  # L1 write miss: no allocation
        if len(entry_set) >= ways:
            victim_line = min(entry_set, key=entry_set.__getitem__)
            victim = entry_set.pop(victim_line)
            ev_pos.append(p)
            if write_back and victim[1]:
                wb_pos.append(p)
                wb_victims.append(victim_line)
        entry_set[line] = [bases[c] + 1 + p, write_back and writes_l[p]]
    if hit_pos:
        hit[hit_pos] = True
    if ev_pos:
        evicted[ev_pos] = True
    if wb_pos:
        wb_line[wb_pos] = wb_victims
    for cache_id in set(cid_l):
        caches[cache_id].sync_use_counter(bases[cache_id] + n)
    return hit, evicted, wb_line


def _per_cache_stats(
    caches: Sequence,
    cache_ids: np.ndarray,
    writes: np.ndarray,
    hit: np.ndarray,
    evicted: np.ndarray,
    wb_line: Optional[np.ndarray],
) -> None:
    """Fold per-op outcomes into each cache's :class:`CacheStats`."""
    n_caches = len(caches)

    def counts(mask: np.ndarray) -> np.ndarray:
        return np.bincount(cache_ids[mask], minlength=n_caches)

    read_hits = counts(hit & ~writes)
    read_misses = counts(~hit & ~writes)
    write_hits = counts(hit & writes)
    write_misses = counts(~hit & writes)
    evictions = counts(evicted)
    writebacks = counts(wb_line >= 0) if wb_line is not None else None
    for cache_id, cache in enumerate(caches):
        stats = cache.stats
        stats.read_hits += int(read_hits[cache_id])
        stats.read_misses += int(read_misses[cache_id])
        stats.write_hits += int(write_hits[cache_id])
        stats.write_misses += int(write_misses[cache_id])
        stats.evictions += int(evictions[cache_id])
        if writebacks is not None:
            stats.writebacks += int(writebacks[cache_id])


def warm_through(
    caches: Sequence,
    cache_ids: np.ndarray,
    lines: np.ndarray,
    writes: np.ndarray,
    set_ids: np.ndarray,
) -> np.ndarray:
    """Replay an op stream through several same-geometry L1s.

    L1 policy: write-through, no-write-allocate; read misses fill.
    Returns the boolean forwarded mask (every write plus every read
    miss).
    """
    hit, evicted, _ = _warm(
        caches, cache_ids, lines, writes, set_ids, write_back=False
    )
    _per_cache_stats(caches, cache_ids, writes, hit, evicted, None)
    return writes | ~hit


def warm_back(
    caches: Sequence,
    cache_ids: np.ndarray,
    lines: np.ndarray,
    writes: np.ndarray,
    set_ids: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Replay an op stream through several same-geometry LLC slices.

    LLC policy: write-back, write-allocate; stores install dirty
    without a fetch.  Returns ``(read_miss_mask, wb_line)`` where
    ``wb_line[p]`` is the dirty victim line evicted by op ``p`` (or
    -1): position-resolved writebacks, so the caller can emit them in
    the order the DRAM stage needs.
    """
    hit, evicted, wb_line = _warm(
        caches, cache_ids, lines, writes, set_ids, write_back=True
    )
    _per_cache_stats(caches, cache_ids, writes, hit, evicted, wb_line)
    return (~hit & ~writes), wb_line


# ----------------------------------------------------------------------
# Whole-stream replay through the hierarchy
# ----------------------------------------------------------------------
def _noc_flits_for(system, n_forwarded: int, n_forwarded_writes: int) -> int:
    """Estimated NoC flits for forwarded replay traffic.

    Writes cost one data packet (write-through store); reads cost the
    request control packet plus the response data packet.
    """
    data_flits = system.config.data_packet_flits
    read_flits = system.config.noc_control_flits + data_flits
    return (
        n_forwarded_writes * data_flits
        + (n_forwarded - n_forwarded_writes) * read_flits
    )


def replay_ops(
    system, sm_ids, lines, channels, banks, rows, slice_ids, writes
) -> Tuple[int, int]:
    """Replay an ordered op stream through *system*'s hierarchy.

    ``sm_ids[p]`` is the SM whose L1 op ``p`` goes through; the other
    fields are the op's mapped line and LLC/DRAM coordinates.  Each
    channel receives the read fetches, then the dirty-victim
    writebacks, each in slice-major order (op order within a slice).
    Returns ``(ops_replayed, estimated_noc_flits)``.
    """
    total_ops = len(lines)
    if not total_ops:
        return 0, 0
    sm_arr = np.asarray(sm_ids, dtype=np.int64)
    lines_u64 = np.asarray(lines, dtype=np.uint64)
    lines_i64 = lines_u64.astype(np.int64)
    writes_arr = np.asarray(writes, dtype=bool)
    l1_set_ids = system.sms[0].l1.set_indices_array(lines_u64)
    forwarded_mask = warm_through(
        [sm.l1 for sm in system.sms], sm_arr, lines_i64, writes_arr,
        l1_set_ids,
    )
    forwarded = np.flatnonzero(forwarded_mask)
    if not forwarded.size:
        return total_ops, 0
    fwd_writes = writes_arr[forwarded]
    noc_flits = _noc_flits_for(system, forwarded.size, int(fwd_writes.sum()))

    slice_arr = np.asarray(slice_ids, dtype=np.int64)[forwarded]
    llc_set_ids = system.slices[0].cache.set_indices_array(
        lines_u64[forwarded]
    )
    read_miss_mask, wb_line = warm_back(
        [s.cache for s in system.slices], slice_arr,
        lines_i64[forwarded], fwd_writes, llc_set_ids,
    )

    chan_arr = np.asarray(channels, dtype=np.int64)
    bank_arr = np.asarray(banks, dtype=np.int64)
    row_arr = np.asarray(rows, dtype=np.int64)
    empty = np.empty(0, dtype=np.int64)
    miss_rel = np.flatnonzero(read_miss_mask)
    miss_rel = miss_rel[np.argsort(slice_arr[miss_rel], kind="stable")]
    if miss_rel.size:
        missed = forwarded[miss_rel]
        read_ch = chan_arr[missed]
        read_banks = bank_arr[missed]
        read_rows = row_arr[missed]
    else:
        read_ch = read_banks = read_rows = empty
    wb_rel = np.flatnonzero(wb_line >= 0)
    wb_rel = wb_rel[np.argsort(slice_arr[wb_rel], kind="stable")]
    if wb_rel.size:
        wb_ch, wb_banks, wb_rows = _decode_writebacks(
            system, wb_line[wb_rel].astype(np.uint64)
        )
    else:
        wb_ch = wb_banks = wb_rows = empty
    _replay_dram(
        system, read_ch, read_banks, read_rows, wb_ch, wb_banks, wb_rows
    )
    return total_ops, noc_flits


def _decode_writebacks(system, wb_lines_u64: np.ndarray):
    """DRAM coordinates of dirty victim lines (one decode for all)."""
    from ..core.mapper import decode_fields

    fields = decode_fields(system.address_map, wb_lines_u64)
    return (
        system._channels_of(fields).astype(np.int64),
        fields["bank"].astype(np.int64),
        fields["row"].astype(np.int64),
    )


def _replay_dram(
    system, read_ch, read_banks, read_rows, wb_ch, wb_banks, wb_rows
) -> None:
    """Replay decoded DRAM traffic per channel (reads then writebacks).

    Per-channel streams keep the arrival order: read fetches in
    slice-major order, then writebacks in slice-major order.
    """
    all_ch = np.concatenate([read_ch, wb_ch])
    if not all_ch.size:
        return
    n_channels = system.timing.channels
    all_banks = np.concatenate([read_banks, wb_banks])
    all_rows = np.concatenate([read_rows, wb_rows])
    reads_per = np.bincount(read_ch, minlength=n_channels)
    writes_per = np.bincount(wb_ch, minlength=n_channels)
    c_order = np.argsort(all_ch, kind="stable")
    sorted_ch = all_ch[c_order]
    bounds = [
        0,
        *(np.flatnonzero(np.diff(sorted_ch)) + 1).tolist(),
        sorted_ch.size,
    ]
    for start, end in zip(bounds, bounds[1:]):
        segment = c_order[start:end]
        channel = int(sorted_ch[start])
        system.dram.controllers[channel].replay_traffic(
            all_banks[segment], all_rows[segment],
            int(reads_per[channel]), int(writes_per[channel]),
        )


# ----------------------------------------------------------------------
# Kernel streams (the cacheable replay form of whole TBs)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class KernelStream:
    """A TB sequence's merged replay stream, scheme-independent.

    ``addresses`` are *raw* (pre-mapping) request addresses in replay
    order; ``tb_ordinals[i]`` is the issuing TB's 0-based index within
    the sequence.  Waves (``tb_ordinal // wave_cap``) are contiguous
    and non-decreasing; each wave is replayed as one
    :func:`replay_ops` call, preserving the per-wave DRAM grouping.
    ``n_tbs`` counts *every* TB of the sequence (including ones that
    contributed no ops) so the fast-forward SM cursor advances
    identically whether the stream was rebuilt or loaded from the
    state cache.

    Construction validates these invariants and raises
    :class:`ValueError` on a violation, which is how the state cache
    recognizes a record that parses but was not written by
    :func:`build_kernel_stream`.
    """

    addresses: np.ndarray  # uint64, raw
    writes: np.ndarray  # bool
    tb_ordinals: np.ndarray  # int32
    n_tbs: int
    wave_cap: int

    def __post_init__(self) -> None:
        arrays = (self.addresses, self.writes, self.tb_ordinals)
        if any(np.ndim(a) != 1 for a in arrays) or len(
            {np.size(a) for a in arrays}
        ) != 1:
            raise ValueError(
                "kernel stream arrays must be 1-D and of equal length, got "
                f"shapes {[np.shape(a) for a in arrays]}"
            )
        if self.wave_cap < 1:
            raise ValueError(f"wave_cap must be >= 1, got {self.wave_cap}")
        ordinals = self.tb_ordinals
        if ordinals.size and (
            ordinals.min() < 0
            or ordinals.max() >= self.n_tbs
            or bool(np.any(np.diff(ordinals // self.wave_cap) < 0))
        ):
            raise ValueError(
                f"TB ordinals must lie in [0, n_tbs={self.n_tbs}) with "
                f"waves (ordinal // wave_cap={self.wave_cap}) non-decreasing"
            )

    @property
    def n_ops(self) -> int:
        return int(self.addresses.size)


def interleave_order(lengths: Sequence[int]) -> np.ndarray:
    """Round-robin merge order of op streams with these lengths.

    One op per stream per turn, streams in index order within a turn —
    approximately the order co-resident warps would issue in.  Returns
    the permutation of the concatenated streams: one stable lexsort
    over (op position, stream index).
    """
    position = np.concatenate([np.arange(n, dtype=np.int64) for n in lengths])
    stream_index = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
    return np.lexsort((stream_index, position))


def build_kernel_stream(tbs: Sequence, wave_cap: int) -> KernelStream:
    """Merge a sequence of TB traces into one replay stream.

    TBs are taken in order one machine window (*wave_cap*) at a time;
    each wave's non-empty warp streams are merged by
    :func:`interleave_order`.  Deterministic, and a pure function of
    the traces and *wave_cap* — nothing scheme- or state-dependent
    enters, which is what makes an estimated kernel's stream
    (``kernel.tbs``) cacheable across schemes and runs.  A frozen
    kernel's queued TBs take the same form.
    """
    tbs = list(tbs)
    addr_parts: List[np.ndarray] = []
    write_parts: List[np.ndarray] = []
    tb_parts: List[np.ndarray] = []
    for start in range(0, len(tbs), wave_cap):
        streams = []  # (tb_ordinal, addresses, writes) per non-empty warp
        for offset, tb in enumerate(tbs[start:start + wave_cap]):
            for warp in tb.warps:
                if len(warp):
                    streams.append((
                        start + offset,
                        np.asarray(warp.addresses, dtype=np.uint64),
                        np.asarray(warp.writes, dtype=bool),
                    ))
        if not streams:
            continue
        lengths = [s[1].size for s in streams]
        ordinals = np.repeat(
            np.asarray([s[0] for s in streams], dtype=np.int32), lengths
        )
        addresses = np.concatenate([s[1] for s in streams])
        writes = np.concatenate([s[2] for s in streams])
        if len(streams) > 1:
            order = interleave_order(lengths)
            ordinals = ordinals[order]
            addresses = addresses[order]
            writes = writes[order]
        addr_parts.append(addresses)
        write_parts.append(writes)
        tb_parts.append(ordinals)
    if addr_parts:
        addresses = np.concatenate(addr_parts)
        writes = np.concatenate(write_parts)
        ordinals = np.concatenate(tb_parts)
    else:
        addresses = np.empty(0, dtype=np.uint64)
        writes = np.empty(0, dtype=bool)
        ordinals = np.empty(0, dtype=np.int32)
    return KernelStream(
        addresses=addresses,
        writes=writes,
        tb_ordinals=ordinals,
        n_tbs=len(tbs),
        wave_cap=int(wave_cap),
    )
