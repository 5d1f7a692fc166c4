"""Auto fidelity: plan every kernel, then measure, freeze or estimate it.

``--fidelity auto`` (contract and constants: :mod:`repro.sim.fidelity`)
samples a workload at two tiers, a form of TBPoint's between- and
within-launch kernel sampling (Huang et al., 2014):

* **Between launches: the plan.**  :func:`plan_auto` decides every
  kernel's fate before the run, one :class:`KernelPlan` each: kernel 0
  runs cold, a warm kernel is measured until its shape class has its
  exemplars, and a later repeat is estimated from the measured cycles of
  its content twin, else of its shape class.
* **Within a launch: the freeze.**  A big detailed kernel whose cycles
  seed no estimate replays the middle of its remaining work
  functionally (:mod:`repro.sim.replay`) and extrapolates its cycles at
  the rate of a measured window (:class:`SampledAccounting`).

:meth:`GPUSystem.run <repro.sim.gpu_system.GPUSystem.run>` runs a
workload this way when it is handed an :class:`Auto`: a plan plus the
lookup of estimated kernels' replay streams, which a
:class:`~repro.runner.worker.RunContext` memoizes across a sweep's
schemes.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import gpu_system
from . import replay as replay_plane
from .fidelity import (
    AUTO,
    BIG_KERNEL_OPS,
    EXEMPLARS,
    FREEZE_FRAC,
    MIN_FREEZE_OPS,
    TAIL_FRAC,
    WARMUP_FRAC,
    fidelity_to_json,
)
from .results import SimulationResult

__all__ = ["Auto", "KernelPlan", "SampledAccounting", "plan_auto"]

# Share of each in-flight warp's *remaining* ops (and of the queued
# TBs) a freeze keeps detailed: the tail that is TAIL_FRAC of the
# whole kernel once FREEZE_FRAC of it has completed.
_KEEP_SHARE = TAIL_FRAC / (1.0 - FREEZE_FRAC)

# Cycle granularity of the loop that watches a measured kernel's
# completions for the window and freeze thresholds.
_POLL_CYCLES = 64


# ----------------------------------------------------------------------
# The plan
# ----------------------------------------------------------------------
def _kernel_fingerprint(kernel, address_map):
    """Three-level identity of one kernel's memory traffic.

    Returns ``(ops, content_key, shape_key)``:

    * the structural group ``(ops, n_tbs, n_warps)`` — embedded in
      both keys, so transfer never crosses grid shapes,
    * ``content_key`` — the group plus a hash of the sorted request
      address multiset: two kernels share it iff they touch exactly
      the same addresses the same number of times, so *every* address
      decode (cache line, LLC slice, bank, row) agrees between them,
    * ``shape_key`` — the group plus coarse footprint statistics
      under the memory's base address decode (touched-bank count,
      hottest-bank request load, unique bank/row count), each
      geometrically bucketed: kernels whose statistics agree within
      ~1.5x land in the same class (a transposed matrix pass touching
      2x the banks does not), so near-identical access patterns
      transfer while genuinely different ones stay measured.  The
      decode uses the *raw* trace addresses, which is exactly the
      BASE mapping — a pure function of the workload and memory
      geometry, never of the scheme under test.
    """
    ops = sum(tb.n_requests for tb in kernel.tbs)
    group = (ops, len(kernel.tbs), sum(tb.n_warps for tb in kernel.tbs))
    if not ops:
        return ops, (group, "empty"), (group,)
    addrs = np.sort(np.concatenate([tb.addresses for tb in kernel.tbs]))
    digest = hashlib.blake2b(addrs.tobytes(), digest_size=16).hexdigest()
    channels, banks, rows = gpu_system.dram_coords(address_map, addrs)
    gbank = channels * address_map.field("bank").size + banks
    counts = np.bincount(gbank)
    bankrow = (gbank << np.int64(32)) | rows

    def bucket(value: int) -> int:
        # Geometric bucketing (base 1.5): statistics within ~1.5x of
        # each other collapse to one class.
        return round(math.log(max(1, value)) / math.log(1.5))

    shape_key = (
        group,
        bucket(int((counts > 0).sum())),
        bucket(int(counts.max())),
        bucket(int(np.unique(bankrow).size)),
    )
    return ops, (group, digest), shape_key


@dataclass(frozen=True)
class KernelPlan:
    """One kernel's fate in an auto run, decided before the run starts.

    ``action`` is ``"cold"`` (kernel 0: measured, never a source),
    ``"measure"`` (measured; its cycles join both of its classes) or
    ``"estimate"`` (assigned the mean measured cycles of ``source``, a
    class of some earlier measured kernel).  ``keys`` is the kernel's
    class pair ``(("content", ...), ("shape", ...))`` and ``ops`` its
    op count.  ``freeze`` marks a measured kernel that skips its steady
    middle, ``replay`` an estimate whose traffic must warm the state a
    later detailed kernel reads.
    """

    action: str
    source: Optional[tuple]
    keys: Tuple[tuple, tuple]
    ops: int
    freeze: bool
    replay: bool


def plan_auto(workload, address_map) -> Tuple[KernelPlan, ...]:
    """Per-kernel plan of an auto run, one entry per kernel in order.

    *address_map* is the memory's base map (see
    :func:`_kernel_fingerprint`).  Kernel 0 is ``"cold"``: cold caches
    and empty row buffers make its cycles unrepresentative of warm
    repeats, in either direction.  A warm kernel is measured until its
    shape class has its exemplar quota: 1 for kernels of at least
    :data:`~repro.sim.fidelity.BIG_KERNEL_OPS` ops (their steady phases
    dominate, so one warm exemplar is representative) and
    :data:`~repro.sim.fidelity.EXEMPLARS` for smaller kernels, whose
    warm-repeat noise a single sample would mistake for signal.  A
    later repeat is estimated from its exact content class when that
    has a measured member (an address-identical twin), else from its
    shape class (same grid, same footprint statistics).  The plan never
    depends on the mapping scheme, so every scheme of a sweep samples
    the same kernels and fig12's speedup ratios see correlated, largely
    cancelling, errors.

    A kernel of :data:`~repro.sim.fidelity.MIN_FREEZE_OPS`+ ops freezes
    unless its cycles seed an estimate (kernel 0's never do): an
    estimate multiplies its source's cycles across every sibling, so a
    freeze-extrapolation bias of a percent or two, acceptable on one
    kernel, would be amplified, and its direction varies by scheme,
    which breaks the ratio cancellation.  An estimate after the last
    detailed kernel does not replay: no later kernel reads the state
    it would warm.
    """
    shape_measured: Dict[tuple, int] = {}
    content_measured = set()
    draft = []
    for index, kernel in enumerate(workload.kernels):
        ops, content, shape = _kernel_fingerprint(kernel, address_map)
        keys = (("content", content), ("shape", shape))
        quota = 1 if ops >= BIG_KERNEL_OPS else EXEMPLARS
        if index == 0:
            draft.append(("cold", None, keys, ops))
        elif content in content_measured:
            draft.append(("estimate", ("content", content), keys, ops))
        elif shape_measured.get(shape, 0) >= quota:
            draft.append(("estimate", ("shape", shape), keys, ops))
        else:
            content_measured.add(content)
            shape_measured[shape] = shape_measured.get(shape, 0) + 1
            draft.append(("measure", None, keys, ops))
    sources = {source for _, source, _, _ in draft if source is not None}
    last_detailed = max(
        (i for i, entry in enumerate(draft) if entry[0] != "estimate"),
        default=-1,
    )
    return tuple(
        KernelPlan(
            action, source, keys, ops,
            freeze=action != "estimate" and ops >= MIN_FREEZE_OPS and (
                action == "cold" or not any(key in sources for key in keys)
            ),
            replay=action == "estimate" and index < last_detailed,
        )
        for index, (action, source, keys, ops) in enumerate(draft)
    )


@dataclass(frozen=True)
class Auto:
    """An auto run's inputs besides the machine.

    ``plan`` is the workload's :func:`plan_auto`; ``stream(kernel_index,
    kernel, wave_cap)`` returns the
    :class:`~repro.sim.replay.KernelStream` of an estimated kernel that
    replays.
    """

    plan: Tuple[KernelPlan, ...]
    stream: Callable

    @classmethod
    def standalone(cls, workload, address_map) -> "Auto":
        """For one run outside a context, which asks for each stream once."""
        def stream(kernel_index, kernel, wave_cap):
            return replay_plane.build_kernel_stream(kernel.tbs, wave_cap)

        return cls(plan_auto(workload, address_map), stream)

    def run(self, system, workload) -> SimulationResult:
        """Run *workload* on the fresh *system* as the plan says."""
        if len(self.plan) != len(workload.kernels):
            raise ValueError(
                f"auto-fidelity plan has {len(self.plan)} entries for a "
                f"workload with {len(workload.kernels)} kernels"
            )
        return _AutoRun(system, self.stream).run(workload, self.plan)


# ----------------------------------------------------------------------
# The loop, the freeze and the replay glue
# ----------------------------------------------------------------------
class _AutoRun:
    """One auto run on one system.

    Kernel boundaries are taken at the TB-retire poll, not at full
    event drain, so trailing writebacks overlap the next kernel's ramp
    just as they do in exact mode.
    """

    def __init__(self, system, stream) -> None:
        self.system = system
        self.stream = stream
        self.accounting = SampledAccounting()
        # Replayed whole TBs are spread over the SM L1s by a rotating
        # cursor (approximating the dispatcher's least-loaded spread),
        # one machine window at a time, so only TBs that would
        # plausibly co-execute are interleaved.
        self.sm_cursor = 0
        self.wave_cap = max(1, system.config.max_concurrent_tbs)

    def run(self, workload, plan) -> SimulationResult:
        system = self.system
        accounting = self.accounting
        class_cycles: Dict[tuple, List[float]] = {}
        class_flit_rates: Dict[tuple, List[float]] = {}
        for kernel_index, (kernel, entry) in enumerate(
            zip(workload.kernels, plan)
        ):
            if entry.action == "estimate":
                exemplars = class_cycles[entry.source]
                cycles = sum(exemplars) / len(exemplars)
                if not entry.replay:
                    # Skipped outright, trace preparation included: its
                    # NoC flits come from the class's flits per op.
                    rates = class_flit_rates.get(entry.source)
                    rate = sum(rates) / len(rates) if rates else 0.0
                    accounting.record_estimated_kernel(
                        entry.ops, cycles, int(round(rate * entry.ops))
                    )
                    continue
                skipped, flits = self.replay_stream(
                    self.stream(kernel_index, kernel, self.wave_cap)
                )
                accounting.record_estimated_kernel(skipped, cycles, flits)
            else:
                contexts = system._kernel_contexts(kernel, kernel_index)
                flits_before = self.noc_flits()
                cycles = self.measure(contexts, entry)
                flits = self.noc_flits() - flits_before
                if entry.action == "cold":
                    continue
                for key in entry.keys:
                    class_cycles.setdefault(key, []).append(cycles)
            if entry.ops:
                for key in entry.keys:
                    class_flit_rates.setdefault(key, []).append(
                        flits / entry.ops
                    )
        engine = system.engine
        engine.run()
        if not system.scheduler.idle or not engine.idle:
            raise RuntimeError(
                "auto-fidelity run failed to drain its trailing events "
                f"({system.scheduler.in_flight} TBs in flight)"
            )
        # Total cycles are the detailed ones plus the skipped work's
        # estimate; the counters (cache stats, DRAM activity, the NoC
        # flits estimated for replayed traffic) already integrate both,
        # so the count-based power models stay consistent.
        sampled = dict(
            accounting.metadata(),
            detailed_cycles=max(engine.now, 1),
            peak_dram_queue_depth=max(
                (c.peak_queue_depth for c in system.dram.controllers),
                default=0,
            ),
        )
        return system._collect(
            workload, accounting.extrapolated_cycles(),
            accounting.ff_noc_flits,
            {"fidelity": fidelity_to_json(AUTO), "sampled": sampled},
        )

    def noc_flits(self) -> int:
        system = self.system
        return (
            system.request_noc.stats.flits + system.response_noc.stats.flits
            + self.accounting.ff_noc_flits
        )

    def measure(self, contexts, entry: KernelPlan):
        """Run one kernel in detail, frozen if planned; return its cycles.

        A frozen kernel opens a measurement window at ``WARMUP_FRAC``
        of its completions and freezes once ``FREEZE_FRAC`` have
        completed and the window has seen a completion in a cycle.  A
        detailed tail then simulates the end-of-kernel parallelism
        decay and drain, which no steady-state rate predicts, and only
        the skipped middle is extrapolated; the returned cycles include
        it.
        """
        engine = self.system.engine
        scheduler = self.system.scheduler
        accounting = self.accounting
        kernel_start = engine.now
        completed_start = self.completed()
        freeze_target = warmup_target = None
        if entry.freeze:
            freeze_target = max(1, int(entry.ops * FREEZE_FRAC))
            warmup_target = int(entry.ops * WARMUP_FRAC)
        scheduler.load_kernel(contexts)
        window_start = seg_mark = None
        segments = []
        frozen = False
        skipped_cycles = 0
        completed = 0
        while True:
            engine.run(until=engine.now + _POLL_CYCLES)
            completed = self.completed() - completed_start
            if scheduler.idle:
                break
            if engine.idle:
                raise RuntimeError(
                    "simulation drained its event queue before the kernel "
                    f"finished ({scheduler.in_flight} TBs in flight)"
                )
            if freeze_target is None or frozen:
                continue
            if window_start is None:
                if completed >= warmup_target:
                    window_start = (engine.now, completed)
                    seg_mark = (engine.now, completed, *self.row_state())
                continue
            seg_mark = self.sample_segment(segments, seg_mark, completed)
            if (
                completed >= freeze_target
                and completed > window_start[1]
                and engine.now > window_start[0]
            ):
                cycles = engine.now - window_start[0]
                requests = completed - window_start[1]
                skipped, flits, miss_frac = self.freeze()
                skipped_cycles = accounting.record_frozen_kernel(
                    cycles, requests, segments, skipped, flits, miss_frac
                )
                frozen = True
        if not frozen:
            accounting.record_window(completed)
        return (engine.now - kernel_start) + skipped_cycles

    # -- telemetry -------------------------------------------------------
    def completed(self) -> int:
        return sum(sm.ops_completed for sm in self.system.sms)

    def row_state(self):
        """Cumulative (row_hits, accesses) across all controllers."""
        hits = accesses = 0
        for controller in self.system.dram.controllers:
            hits += controller.row_hits
            accesses += controller.accesses
        return hits, accesses

    def sample_segment(self, segments, seg_mark, completed):
        """Append one trajectory segment since *seg_mark*; return new mark.

        Segments feed :meth:`SampledAccounting.record_frozen_kernel`'s
        drift fit: per-poll deltas of (cycles, completed requests, row
        hits, row accesses) plus the instantaneous machine-wide count
        of issued, uncompleted ops (the issue-pressure gate excluding
        ramp/drain segments).
        """
        hits, accesses = self.row_state()
        now = self.system.engine.now
        d_cycles = now - seg_mark[0]
        if d_cycles > 0:
            segments.append((
                d_cycles,
                completed - seg_mark[1],
                hits - seg_mark[2],
                accesses - seg_mark[3],
                sum(sm.in_flight_ops for sm in self.system.sms),
            ))
        return (now, completed, hits, accesses)

    # -- the freeze and the replay glue ------------------------------------
    def freeze(self):
        """Fast-forward the current kernel's skippable middle.

        Two populations are skipped: the in-flight warps' remaining
        ops (their cursors jump forward; pending engine events resolve
        through the issue path's cursor guards), and the TBs still
        queued for dispatch (replayed as a
        :class:`~repro.sim.replay.KernelStream`, as an estimated kernel
        is).  Each in-flight warp keeps ``_KEEP_SHARE`` of its remaining
        ops — at least one — as a detailed tail, and the same share of
        the queued TBs stays queued.

        Returns ``(ops_skipped, estimated_noc_flits, miss_frac)``, where
        *miss_frac* is the row-miss fraction of the DRAM traffic the
        replay pushed through the bank state machines (None when the
        replay generated no DRAM accesses) — the projection target of
        the accounting's drift correction.
        """
        system = self.system
        hits_before, accesses_before = self.row_state()
        # Group 0: the in-flight warps, on their real SMs.  A warp
        # parked on a full MSHR file replays from its *current* op,
        # whose L1 miss was already counted at the failed issue — the
        # replay's extra L1 touch mirrors the re-access an exact-mode
        # retry performs, and dropping the op would instead lose its
        # LLC/DRAM traffic.
        streams = []
        for sm in system.sms:
            for tb in sm.active_tbs:
                for warp in tb.warps:
                    if warp.issued_all:
                        continue
                    keep = max(1, int((warp.end - warp.op) * _KEEP_SHARE))
                    chunk = warp.fast_forward_middle(keep)
                    if chunk[0]:
                        streams.append((tb.sm_id, chunk))
        skipped, flits = self.replay_interleaved(streams)
        # Later groups: queued TBs in dispatch order, one machine
        # window at a time, spread round-robin across the SM L1s.
        keep_tbs = int(round(system.scheduler.pending * _KEEP_SHARE))
        queued = system.scheduler.take_pending(keep_last=keep_tbs)
        stream = replay_plane.build_kernel_stream(
            [tb.trace for tb in queued], self.wave_cap
        )
        queued_skipped, queued_flits = self.replay_stream(stream)
        hits_after, accesses_after = self.row_state()
        replayed = accesses_after - accesses_before
        if replayed > 0:
            miss_frac = 1.0 - (hits_after - hits_before) / replayed
        else:
            miss_frac = None
        return skipped + queued_skipped, flits + queued_flits, miss_frac

    def replay_interleaved(self, streams):
        """Round-robin-interleave warp op streams and replay them.

        *streams* is a list of ``(sm_id, (lines, channels, banks,
        rows, slices, writes))`` per warp; ops are merged one per warp
        per turn (:func:`~repro.sim.replay.interleave_order`, the
        order :func:`~repro.sim.replay.build_kernel_stream` uses too)
        and each op replays through its own warp's SM.  Returns
        ``(ops_replayed, estimated_noc_flits)``.
        """
        if not streams:
            return 0, 0
        lengths = [len(chunk[0]) for _, chunk in streams]
        order = replay_plane.interleave_order(lengths)
        sm_ids = np.repeat(
            np.asarray([sm_id for sm_id, _ in streams]), lengths
        )[order]
        merged = [
            np.concatenate(
                [np.asarray(chunk[field]) for _, chunk in streams]
            )[order]
            for field in range(6)
        ]
        return replay_plane.replay_ops(self.system, sm_ids, *merged)

    def replay_stream(self, stream):
        """Replay a :class:`~repro.sim.replay.KernelStream`.

        The one replay path for whole TBs, whether an estimated
        kernel's or the queued tail of a frozen one: the SM cursor
        advances once per TB (empty ones included), each op lands on
        the SM its TB is spread to, the whole stream is scheme-mapped
        and decoded in one pass, and each wave is replayed as one
        :func:`~repro.sim.replay.replay_ops` call (preserving the
        per-wave DRAM grouping).  Returns ``(ops_replayed,
        estimated_noc_flits)``.
        """
        system = self.system
        cursor0 = self.sm_cursor
        self.sm_cursor += stream.n_tbs
        if not stream.n_ops:
            return 0, 0
        mapped = np.atleast_1d(system.scheme.map(stream.addresses))
        lines, channels, banks, rows, slices = system._coords_of(mapped)
        sm_ids = (cursor0 + stream.tb_ordinals.astype(np.int64)) % len(system.sms)
        waves = stream.tb_ordinals // np.int32(stream.wave_cap)
        bounds = [
            0,
            *(np.flatnonzero(np.diff(waves)) + 1).tolist(),
            stream.n_ops,
        ]
        total_skipped = 0
        total_flits = 0
        for start, end in zip(bounds, bounds[1:]):
            view = slice(start, end)
            skipped, flits = replay_plane.replay_ops(
                system, sm_ids[view], lines[view], channels[view],
                banks[view], rows[view], slices[view], stream.writes[view],
            )
            total_skipped += skipped
            total_flits += flits
        return total_skipped, total_flits


# ----------------------------------------------------------------------
# The accounting
# ----------------------------------------------------------------------
def _drift_fit(segments):
    """Fit segment rate against row-miss fraction.

    Returns ``(intercept, slope, lo, hi)`` or None when the window
    has too few usable segments or no miss-fraction variation.
    ``lo``/``hi`` bound the rates actually observed, clamping the
    projection.
    """
    points = []  # (miss_frac, rate, weight)
    for cycles, requests, hits, accesses, depth in segments:
        if requests <= 0 or accesses <= 0:
            continue
        if depth <= 0:
            # Nothing in flight means the segment is issue-starved
            # (ramp edge or drain), not steady state.
            continue
        points.append((1.0 - hits / accesses, cycles / requests, requests))
    if len(points) < 3:
        return None
    total_w = sum(w for _, _, w in points)
    mean_x = sum(x * w for x, _, w in points) / total_w
    mean_y = sum(y * w for _, y, w in points) / total_w
    var_x = sum(w * (x - mean_x) ** 2 for x, _, w in points) / total_w
    if var_x <= 1e-12:
        return None
    cov = sum(
        w * (x - mean_x) * (y - mean_y) for x, y, w in points
    ) / total_w
    slope = max(0.0, cov / var_x)
    intercept = mean_y - slope * mean_x
    rates = [y for _, y, _ in points]
    return intercept, slope, min(rates), max(rates)


class SampledAccounting:
    """Cycle and traffic bookkeeping of one auto run.

    An auto run mixes three kinds of kernel: detailed ones, whose
    cycles are real; frozen ones, whose skipped middle is extrapolated
    from their own measurement window; and estimated ones, whose cycles
    are transferred from measured exemplars.  This accumulator records
    each and integrates the skipped work's cycles.

    A frozen kernel's middle is extrapolated with its window's
    cycles-per-completed-request rate, corrected for **row-hit drift**:
    FR-FCFS row-hit rate is not stationary across a kernel — it moves
    with queue depth and access phase, so a window's average rate
    mispredicts the skipped middle whenever its row-buffer locality
    differs from the window's.  When the window's trajectory allows,
    the per-segment rate is fit (request-weighted least squares)
    against the segment's row-miss fraction, and the fit is projected
    onto the *replay-observed* row-miss mix of the skipped traffic.
    Segments with nothing in flight are excluded (they are ramp or
    drain, not steady state), the slope is clamped non-negative (more
    row misses can never be faster), and the projected rate is clamped
    to the range the window actually exhibited.
    """

    def __init__(self) -> None:
        # Extrapolated cycles per frozen kernel and transferred cycles
        # per estimated kernel, each in run order.
        self._frozen: List[float] = []
        self._estimated: List[float] = []
        self.windows = 0
        self.window_requests = 0
        self.ff_requests = 0
        self.ff_noc_flits = 0
        self.drift_corrected = 0

    def record_window(self, requests: int) -> None:
        """One measured window: a kernel that ran whole, or a frozen
        kernel's window before its middle."""
        self.windows += 1
        self.window_requests += requests

    def record_frozen_kernel(
        self, cycles: int, requests: int, segments, skipped: int,
        noc_flits: int, miss_frac: Optional[float],
    ) -> float:
        """A frozen kernel: its window and its skipped middle.

        The window measured *requests* completions in *cycles* cycles,
        with the trajectory *segments* (``(cycles, requests, row_hits,
        row_accesses, in_flight)`` per poll, in time order); the middle
        replayed *skipped* ops costing an estimated *noc_flits*, with
        the row-miss fraction *miss_frac* (None when it reached no
        DRAM).  Returns the middle's extrapolated cycles.  A window
        without traffic has no rate, so it is refused.
        """
        if cycles <= 0 or requests <= 0:
            raise ValueError(
                f"a frozen kernel's window needs traffic: "
                f"cycles={cycles}, requests={requests}"
            )
        rate = cycles / requests
        fit = _drift_fit(segments) if miss_frac is not None else None
        if fit is not None:
            intercept, slope, lo, hi = fit
            rate = min(max(intercept + slope * miss_frac, lo), hi)
            self.drift_corrected += 1
        self.record_window(requests)
        self.ff_requests += skipped
        self.ff_noc_flits += noc_flits
        self._frozen.append(rate * skipped)
        return self._frozen[-1]

    def record_estimated_kernel(
        self, requests: int, cycles: float, noc_flits: int = 0
    ) -> None:
        """One replayed or skipped kernel with transferred cycles."""
        if requests < 0 or cycles < 0:
            raise ValueError(
                f"kernel estimates cannot be negative: "
                f"requests={requests}, cycles={cycles}"
            )
        self._estimated.append(float(cycles))
        self.ff_requests += requests
        self.ff_noc_flits += noc_flits

    def extrapolated_cycles(self) -> int:
        """Estimated cycles of all skipped work (integer)."""
        total = 0.0
        for cycles in self._frozen + self._estimated:
            total += cycles
        return int(round(total))

    def metadata(self) -> Dict[str, object]:
        """JSON-safe summary for the result record's metadata.

        ``drained_requests`` is always 0 since nothing drains after a
        freeze; the key stays so existing result bytes keep their shape.
        """
        return {
            "windows": self.windows,
            "window_requests": self.window_requests,
            "ff_phases": len(self._frozen),
            "ff_requests": self.ff_requests,
            "drift_corrected_phases": self.drift_corrected,
            "drained_requests": 0,
            "estimated_kernels": len(self._estimated),
            "estimated_ff_cycles": self.extrapolated_cycles(),
        }
