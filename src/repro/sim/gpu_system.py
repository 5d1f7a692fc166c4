"""Full-system GPU memory-hierarchy simulator.

Wires together every substrate into the paper's simulated machine
(Table I) and runs a workload trace under a mapping scheme::

    SMs (warps, L1 + MSHR)
      -> request crossbar (SMs x LLC slices)
        -> LLC slices (MSHR merging)
          -> FR-FCFS memory controllers -> GDDR5 banks
        <- response crossbar (slices x SMs)

The address mapper sits conceptually right after the coalescer: all
cache indexing, slice selection, NoC routing and DRAM decode use the
*mapped* address.  For speed the mapping + field decode of every
transaction is precomputed (vectorized, one pass per kernel) when TBs
are prepared; this is exact because the BIM is stateless.  DRAM
traffic is batched per cycle: LLC misses and writeback victims
accumulate and are decoded, grouped per channel and scheduled by one
FR-FCFS pass per controller per cycle instead of one Python event per
request.  Warp issue is batched per SM the same way (one issue tick
per port slot, see :mod:`repro.gpu.sm`), and all inter-component
plumbing below schedules through the engine's closure-free
``at_call``/``after_call`` fast path with pre-bound callbacks.

Instrumentation captures everything the paper's evaluation plots:
execution cycles, NoC packet latency (13a), LLC miss rate (13b),
LLC/channel/bank-level parallelism (14), row-buffer hit rate (15),
the DRAM power breakdown (16) and system power (11/17).
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, List, Optional

import numpy as np

from ..core.address_map import AddressMap
from ..core.mapper import decode_fields
from ..core.schemes import MappingScheme
from ..dram.power import DRAMPowerParams
from ..dram.scheduler import DRAMRequest
from ..dram.system import DRAMSystem
from ..dram.timing import DRAMTiming, gddr5_timing
from ..gpu.config import GPUConfig, baseline_config
from ..gpu.llc import LLCSlice
from ..gpu.noc import Crossbar
from ..gpu.power import GPUPowerModel, GPUPowerParams, default_gpu_power_params
from ..gpu.sm import SM, MemRequest
from ..gpu.tb_scheduler import TBScheduler
from ..gpu.thread_block import TBContext, WarpContext
from ..workloads.base import Workload
from . import replay as replay_plane
from .engine import Engine
from .fidelity import (
    EXACT,
    AutoFidelity,
    Fidelity,
    SampledFidelity,
    fidelity_to_json,
    parse_fidelity,
)
from .metrics import OutstandingTracker, SampledAccounting, combined_parallelism
from .results import SimulationResult

__all__ = ["GPUSystem", "plan_auto", "simulate"]

# Sentinel tagging fire-and-forget writeback completions; the payload
# is the tuple ``(_WRITEBACK, channel)`` so completion needs no decode.
_WRITEBACK = object()


def _kernel_fingerprint(kernel, address_map: Optional[AddressMap]):
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
    ops = sum(len(warp) for tb in kernel.tbs for warp in tb.warps)
    group = (ops, len(kernel.tbs), sum(len(tb.warps) for tb in kernel.tbs))
    arrays = [
        np.asarray(warp.addresses, dtype=np.uint64)
        for tb in kernel.tbs for warp in tb.warps if len(warp)
    ]
    if not arrays:
        return ops, (group, "empty"), (group,)
    addrs = np.sort(np.concatenate(arrays))
    digest = hashlib.blake2b(addrs.tobytes(), digest_size=16).hexdigest()
    content_key = (group, digest)
    if address_map is None:
        return ops, content_key, (group,)
    fields = decode_fields(address_map, addrs)
    if "channel" in address_map:
        channels = fields["channel"]
    else:
        vaults = address_map.field("vault").size
        channels = fields["stack"] * vaults + fields["vault"]
    banks_per = address_map.field("bank").size
    gbank = channels.astype(np.int64) * banks_per + fields["bank"].astype(np.int64)
    counts = np.bincount(gbank)
    bankrow = (gbank << np.int64(32)) | fields["row"].astype(np.int64)

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
    return ops, content_key, shape_key


def plan_auto(
    workload: Workload,
    fidelity: AutoFidelity,
    address_map: Optional[AddressMap] = None,
):
    """Per-kernel sampling plan for auto fidelity.

    Returns one ``(mode, source, keys, ops, freeze_ok)`` entry per
    kernel, in execution order.  ``keys`` is the kernel's fingerprint
    pair ``(("content", ...), ("shape", ...))`` (see
    :func:`_kernel_fingerprint`); ``mode`` is one of:

    * ``"cold"`` — kernel 0: measured in full detail but never used to
      estimate siblings (cold caches and empty row buffers make its
      cycles unrepresentative of warm repeats, in either direction),
    * ``"measure"`` — a warm kernel whose shape class has not yet
      filled its exemplar quota: measured, and its boundary cycles
      feed both its content class and its shape class,
    * ``"estimate"`` — a later repeat: replayed functionally through
      the already-warm hierarchy state and assigned the mean of the
      measured cycles of ``source`` — its exact content class when
      that has a measured member (an address-identical twin), else
      its shape class (same grid, same footprint statistics).

    The quota is 1 for kernels of at least ``fidelity.big_kernel_ops``
    ops (their steady phases dominate, so one warm exemplar is
    representative) and ``fidelity.exemplars`` for smaller kernels,
    whose warm-repeat noise a single sample would mistake for signal.

    ``freeze_ok`` gates the in-kernel skip-middle freeze: a measured
    kernel whose classes seed later estimates must run unfrozen,
    because its boundary cycles are multiplied across every sibling it
    estimates — a freeze-extrapolation bias of a percent or two is
    acceptable on one kernel but not amplified three-fold, and the
    bias direction varies by mapping scheme, so the amplified copies
    break the figure-12 ratio cancellation.  Cold kernel 0 (whose
    cycles are never transferred) and measured kernels no estimate
    draws on keep the freeze.

    The plan is a pure function of the workload and the memory's base
    address geometry — never of the mapping scheme — so every scheme
    samples the same kernels at the same cut points.  The paper's
    figure-12 metric is the per-benchmark cycle *ratio* against BASE:
    keeping the cut points identical across schemes keeps per-cell
    estimation errors correlated, and correlated errors cancel in the
    ratio.
    """
    shape_measured: Dict[tuple, int] = {}
    content_measured = set()
    draft = []
    for index, kernel in enumerate(workload.kernels):
        ops, content, shape = _kernel_fingerprint(kernel, address_map)
        keys = (("content", content), ("shape", shape))
        if index == 0:
            draft.append(("cold", None, keys, ops))
            continue
        quota = 1 if ops >= fidelity.big_kernel_ops else fidelity.exemplars
        if content in content_measured:
            draft.append(("estimate", ("content", content), keys, ops))
        elif shape_measured.get(shape, 0) >= quota:
            draft.append(("estimate", ("shape", shape), keys, ops))
        else:
            content_measured.add(content)
            shape_measured[shape] = shape_measured.get(shape, 0) + 1
            draft.append(("measure", None, keys, ops))
    sources = {source for mode, source, _, _ in draft if mode == "estimate"}
    plan = []
    for mode, source, keys, ops in draft:
        freeze_ok = mode == "cold" or (
            mode == "measure" and not any(key in sources for key in keys)
        )
        plan.append((mode, source, keys, ops, freeze_ok))
    return plan


class GPUSystem:
    """One simulated GPU + memory system, ready to run one workload."""

    def __init__(
        self,
        scheme: MappingScheme,
        config: Optional[GPUConfig] = None,
        timing: Optional[DRAMTiming] = None,
        dram_power_params: Optional[DRAMPowerParams] = None,
        gpu_power_params: Optional[GPUPowerParams] = None,
        dram_scheduler_factory=None,
    ) -> None:
        self.config = config or baseline_config()
        self.timing = timing or gddr5_timing()
        self.scheme = scheme
        self.address_map = scheme.address_map
        self.engine = Engine()

        # DRAM system with completion routing back into the LLC.
        self.dram = DRAMSystem(
            self.engine,
            self.timing,
            self.address_map,
            on_complete=self._dram_complete,
            power_params=dram_power_params,
            scheduler_factory=dram_scheduler_factory,
        )

        # Parallelism trackers (Fig. 14).
        self.llc_tracker = OutstandingTracker(self.config.llc_slices, "llc")
        self.channel_tracker = OutstandingTracker(self.timing.channels, "channel")
        self.bank_trackers = [
            OutstandingTracker(self.timing.banks_per_channel, f"bank[ch{c}]")
            for c in range(self.timing.channels)
        ]

        # NoC: request crossbar SMs -> slices, response crossbar back.
        self.request_noc = Crossbar(
            self.engine, self.config.n_sms, self.config.llc_slices,
            self.config.noc_base_latency, name="request-noc",
        )
        self.response_noc = Crossbar(
            self.engine, self.config.llc_slices, self.config.n_sms,
            self.config.noc_base_latency, name="response-noc",
        )

        # LLC slices.
        self.slices: List[LLCSlice] = [
            LLCSlice(
                self.engine, self.config, slice_id,
                send_response=self._send_response,
                submit_dram_read=self._submit_dram_read,
                submit_dram_writeback=self._submit_dram_writeback,
            )
            for slice_id in range(self.config.llc_slices)
        ]

        # SMs.
        self.sms: List[SM] = [
            SM(self.engine, self.config, sm_id,
               send_read=self._send_read, send_write=self._send_write)
            for sm_id in range(self.config.n_sms)
        ]

        self.scheduler = TBScheduler(self.sms, on_kernel_done=self._kernel_done)
        self._kernels_pending: List[List[TBContext]] = []
        self._finished = False
        # Functional-replay state: a rotating cursor spreading each
        # fast-forwarded wave's TBs across the SM L1s (approximating
        # the dispatcher's least-loaded spread), and the wave size —
        # one machine window, so only TBs that would plausibly
        # co-execute are interleaved.
        self._ff_sm_cursor = 0
        self._wave_cap = max(1, self.config.max_concurrent_tbs)

        # Pre-bound callbacks for the engine's closure-free scheduling
        # fast path: no lambda or bound-method allocation per packet.
        self._slice_on_read = [s.on_read for s in self.slices]
        self._forward_read_cb = self._forward_read
        self._deliver_fill_cb = self._deliver_fill
        self._store_delivered_cb = self._store_delivered
        self._flush_dram_cb = self._flush_dram_batch
        self._control_flits = self.config.noc_control_flits
        self._data_flits = self.config.data_packet_flits

        # Mapping/decoding cache for trace preparation.
        self._mapper_extra_latency = scheme.extra_latency_cycles
        self._slices_per_channel = max(1, self.config.llc_slices // self.timing.channels)

        # Same-cycle DRAM submission batching: misses and writebacks
        # accumulate here and are flushed to the controllers by one
        # event per cycle, so a burst of requests is decoded and
        # scheduled as arrays rather than one Python event each.
        self._dram_reads_pending: List[MemRequest] = []
        self._dram_writebacks_pending: List[int] = []
        self._dram_flush_scheduled = False

    # ------------------------------------------------------------------
    # Trace preparation: vectorized mapping + decode
    # ------------------------------------------------------------------
    def _coords_of(self, mapped: np.ndarray):
        """DRAM coordinates of already-mapped addresses (vectorized)."""
        fields = decode_fields(self.address_map, mapped)
        line_mask = ~np.uint64(self.config.line_bytes - 1)
        lines = (mapped & line_mask).astype(np.int64)
        channels = self._channels_of(fields)
        banks = fields["bank"]
        rows = fields["row"]
        slices = self._slice_of(channels, banks)
        return lines, channels, banks, rows, slices

    def _channels_of(self, fields: Dict[str, np.ndarray]) -> np.ndarray:
        """Controller index per request from decoded fields."""
        if "channel" in self.address_map:
            return fields["channel"]
        vaults = self.address_map.field("vault").size
        return fields["stack"] * vaults + fields["vault"]

    def _prepare_kernel(self, kernel) -> "callable":
        """Batched trace preparation for one kernel's warps.

        All warp address streams of the kernel are concatenated, mapped
        and decoded in a single vectorized pass, then split back into
        per-warp views of ``(lines, channels, banks, rows, slices,
        l1_sets, llc_sets)`` — the :class:`TBContext` prepare contract.
        The BIM, the field decode and the set hash are elementwise, so
        this is bit-identical to preparing each warp on its own, but
        the numpy fixed cost is paid once per kernel instead of once
        per warp.  Every L1 shares one geometry and every LLC slice
        another, so one :meth:`set_indices_array` pass per geometry
        covers all caches.
        """
        traces = [warp for tb in kernel.tbs for warp in tb.warps]
        nonempty = [t for t in traces if len(t)]
        empties = ([],) * 7
        if not nonempty:
            return lambda trace: empties
        addresses = np.concatenate([t.addresses for t in nonempty])
        mapped = np.atleast_1d(self.scheme.map(addresses))
        lines, channels, banks, rows, slices = self._coords_of(mapped)
        l1_sets = self.sms[0].l1.set_indices_array(lines)
        llc_sets = self.slices[0].cache.set_indices_array(lines)
        # One tolist() per field per kernel; warps get list slices.
        lines, channels, banks, rows, slices, l1_sets, llc_sets = (
            field.tolist()
            for field in (lines, channels, banks, rows, slices, l1_sets, llc_sets)
        )
        table = {}
        start = 0
        for trace in traces:
            n = len(trace)
            if not n:
                table[id(trace)] = empties
                continue
            end = start + n
            table[id(trace)] = (
                lines[start:end], channels[start:end], banks[start:end],
                rows[start:end], slices[start:end], l1_sets[start:end],
                llc_sets[start:end],
            )
            start = end
        return lambda trace: table[id(trace)]

    def _slice_of(self, channels: np.ndarray, banks: np.ndarray) -> np.ndarray:
        """LLC slice selection from mapped channel/bank coordinates.

        With more slices than channels (the 8-slice / 4-channel
        baseline) the low bank bits pick among a channel's slices;
        with more channels than slices (3D-stacked) slices are
        interleaved across controllers.
        """
        if self.config.llc_slices >= self.timing.channels:
            return channels * self._slices_per_channel + (
                banks % self._slices_per_channel
            )
        return channels % self.config.llc_slices

    # ------------------------------------------------------------------
    # Component plumbing
    # ------------------------------------------------------------------
    def _send_read(self, request: MemRequest) -> None:
        """SM L1 miss -> (mapper latency) -> request NoC -> LLC slice."""
        self.llc_tracker.change(request.slice, +1, self.engine.now)
        delay = self._mapper_extra_latency
        if delay:
            self.engine.after_call(delay, self._forward_read_cb, request)
        else:
            self._forward_read(request)

    def _forward_read(self, request: MemRequest) -> None:
        self.request_noc.send(
            request.sm_id, request.slice, self._control_flits,
            self._slice_on_read[request.slice], request,
        )

    def _send_write(
        self, sm: SM, slice_id: int, line: int, llc_set: int, on_accepted, arg
    ) -> None:
        """SM write-through store -> request NoC (data packet) -> slice.

        ``on_accepted(arg)`` fires at delivery, releasing the issuing
        warp (store-queue backpressure through the congested port).
        """
        self.request_noc.send(
            sm.sm_id, slice_id, self._data_flits,
            self._store_delivered_cb,
            (slice_id, line, llc_set, on_accepted, arg),
        )

    def _store_delivered(self, payload) -> None:
        slice_id, line, llc_set, on_accepted, arg = payload
        self.slices[slice_id].on_write(line, llc_set)
        on_accepted(arg)

    def _send_response(self, request: MemRequest) -> None:
        """LLC -> response NoC -> SM fill."""
        self.llc_tracker.change(request.slice, -1, self.engine.now)
        self.response_noc.send(
            request.slice, request.sm_id, self._data_flits,
            self._deliver_fill_cb, request,
        )

    def _deliver_fill(self, request: MemRequest) -> None:
        self.sms[request.sm_id].on_fill(request.line, request.l1_set)

    def _submit_dram_read(self, request: MemRequest) -> None:
        self._dram_reads_pending.append(request)
        self._schedule_dram_flush()

    def _submit_dram_writeback(self, line: int) -> None:
        """Dirty LLC victim -> DRAM write (fire and forget)."""
        self._dram_writebacks_pending.append(line)
        self._schedule_dram_flush()

    def _schedule_dram_flush(self) -> None:
        if not self._dram_flush_scheduled:
            self._dram_flush_scheduled = True
            self.engine.at(self.engine.now, self._flush_dram_cb)

    def _flush_dram_batch(self) -> None:
        """Hand this cycle's accumulated DRAM traffic to the controllers.

        Reads were decoded at trace preparation; writeback victim lines
        are decoded here as one array.  Requests are grouped per channel
        and submitted as batches, so each controller runs one FR-FCFS
        pass over the cycle's arrivals.
        """
        self._dram_flush_scheduled = False
        now = self.engine.now
        reads, self._dram_reads_pending = self._dram_reads_pending, []
        lines, self._dram_writebacks_pending = self._dram_writebacks_pending, []
        channel_change = self.channel_tracker.change
        bank_trackers = self.bank_trackers
        per_channel: Dict[int, List[DRAMRequest]] = {}
        for request in reads:
            channel = request.channel
            bank = request.bank
            channel_change(channel, 1, now)
            bank_trackers[channel].change(bank, 1, now)
            batch = per_channel.get(channel)
            if batch is None:
                batch = per_channel[channel] = []
            batch.append(
                DRAMRequest(id(request), bank, request.row, False, now, request)
            )
        if lines:
            fields = decode_fields(
                self.address_map, np.asarray(lines, dtype=np.uint64)
            )
            channels = self._channels_of(fields).tolist()
            banks = fields["bank"].tolist()
            rows = fields["row"].tolist()
            for line, channel, bank, row in zip(lines, channels, banks, rows):
                channel_change(channel, 1, now)
                bank_trackers[channel].change(bank, 1, now)
                batch = per_channel.get(channel)
                if batch is None:
                    batch = per_channel[channel] = []
                batch.append(DRAMRequest(
                    line, bank, row, True, now, (_WRITEBACK, channel)
                ))
        for channel in sorted(per_channel):
            self.dram.submit_many(channel, per_channel[channel])

    def _dram_complete(self, request: DRAMRequest, when: int) -> None:
        payload = request.payload
        now = self.engine.now
        if isinstance(payload, MemRequest):
            channel = payload.channel
            self.channel_tracker.change(channel, -1, now)
            self.bank_trackers[channel].change(request.bank, -1, now)
            self.slices[payload.slice].on_dram_fill(payload.line, payload.llc_set)
        elif isinstance(payload, tuple) and payload[0] is _WRITEBACK:
            channel = payload[1]
            self.channel_tracker.change(channel, -1, now)
            self.bank_trackers[channel].change(request.bank, -1, now)
        else:
            raise RuntimeError(f"unexpected DRAM completion payload: {payload!r}")

    # ------------------------------------------------------------------
    # Run control
    # ------------------------------------------------------------------
    def _kernel_done(self) -> None:
        if self._kernels_pending:
            tbs = self._kernels_pending.pop(0)
            self.scheduler.load_kernel(tbs)
        else:
            self._finished = True

    def run(
        self,
        workload: Workload,
        max_events: Optional[int] = None,
        fidelity: Fidelity = EXACT,
        auto_plan=None,
        state_cache=None,
        state_key=None,
    ) -> SimulationResult:
        """Simulate *workload* to completion and collect all metrics.

        *fidelity* selects the simulation mode (see
        :mod:`repro.sim.fidelity`): ``"exact"`` (the default) runs
        every cycle on the event engine and is byte-identical to the
        pre-fidelity simulator; a :class:`SampledFidelity` alternates
        detailed sample windows with vectorized functional
        fast-forward phases and extrapolates the skipped cycles; an
        :class:`AutoFidelity` derives a per-kernel plan from the
        workload's structure (see :func:`plan_auto`).

        *auto_plan* optionally supplies a precomputed
        :func:`plan_auto` result (the plan is scheme-independent, so a
        sweep computes it once per workload and shares it across every
        scheme's run).  Ignored unless *fidelity* is auto.

        *state_cache* / *state_key* optionally connect the auto mode's
        estimated-kernel replay to a cross-run
        :class:`~repro.runner.state_cache.StateCache`: *state_key* is
        the run's scheme-independent identity document (workload
        content, scale, fidelity, memory kind, machine size) and the
        cache stores each estimated kernel's merged replay stream
        (:class:`~repro.sim.replay.KernelStream`) under it, so sweeps
        over many schemes — and later re-sweeps — build each kernel's
        warmed-state input once.  Ignored unless *fidelity* is auto.
        """
        if self._finished or self.scheduler.tbs_dispatched:
            raise RuntimeError("GPUSystem instances are single-use; build a new one")
        fidelity = parse_fidelity(fidelity)
        if isinstance(fidelity, AutoFidelity):
            return self._run_auto(
                workload, fidelity, max_events, plan=auto_plan,
                state_cache=state_cache, state_key=state_key,
            )
        if isinstance(fidelity, SampledFidelity):
            return self._run_sampled(workload, fidelity, max_events)
        kernels = []
        for kernel_index, kernel in enumerate(workload.kernels):
            prepare = self._prepare_kernel(kernel)
            kernels.append([
                TBContext(tb, kernel_index, prepare) for tb in kernel.tbs
            ])
        self._kernels_pending = kernels[1:]
        self.scheduler.load_kernel(kernels[0])
        self.engine.run(max_events=max_events)
        if not self._finished:
            raise RuntimeError(
                "simulation drained its event queue before the workload finished "
                f"({self.scheduler.in_flight} TBs in flight)"
            )
        return self._collect(workload)

    # ------------------------------------------------------------------
    # Sampled fidelity: detailed sample windows + kernel fast-forward
    # ------------------------------------------------------------------
    # Cycle granularity of the polling loop that watches for the
    # warmup / window completed-op thresholds inside a kernel.
    _SAMPLE_POLL_CYCLES = 64

    def _run_sampled(
        self,
        workload: Workload,
        fidelity: SampledFidelity,
        max_events: Optional[int] = None,
    ) -> SimulationResult:
        """Interval-sampled run (see :mod:`repro.sim.fidelity`).

        Each kernel starts exactly as in exact mode — full TB stream,
        normal dispatch, real occupancy and co-residency — and runs
        detailed until the first ``(warmup + window) / period`` share
        of its ops has **completed**: the warmup share re-fills
        pipeline state (excluded from measurement) and the window
        share is the measured sample, yielding the kernel's own
        steady-state cycles-per-completed-request rate.  Then the
        kernel **freezes** (:meth:`_freeze_kernel`): un-dispatched TBs
        and the in-flight warps' remaining ops are replayed
        functionally — through SM L1 tags, LLC slices and the DRAM
        row-buffer state machines, in dispatch-window-sized groups
        with round-robin warp interleaving — while the in-flight
        detailed requests drain normally on the engine.  The skipped
        ops are extrapolated with the same kernel's measured rate
        (:class:`~repro.sim.metrics.SampledAccounting`), so
        per-kernel heterogeneity is sampled rather than assumed.

        Kernels too small to reach their threshold (or whose detailed
        share covers everything) simply run to completion — tiny
        workloads degrade gracefully toward exact simulation.
        """
        accounting = SampledAccounting()
        engine = self.engine
        poll = self._SAMPLE_POLL_CYCLES

        # One event budget across the whole run, like exact mode: each
        # engine.run call gets the *remaining* allowance, not a fresh
        # copy per 64-cycle poll.
        def remaining_events() -> Optional[int]:
            if max_events is None:
                return None
            return max(0, max_events - engine.events_processed)

        for kernel_index, kernel in enumerate(workload.kernels):
            prepare = self._prepare_kernel(kernel)
            contexts = [TBContext(tb, kernel_index, prepare) for tb in kernel.tbs]
            kernel_ops = sum(w.n_ops for tb in contexts for w in tb.warps)
            kernel_warps = sum(
                1 for tb in contexts for w in tb.warps if w.n_ops
            )
            # The measured window must start past the machine's fill
            # ramp: completions only reach steady state once the
            # in-flight population saturates, which takes about one
            # flight's worth of ops.  The warmup share is therefore
            # floored at the in-flight op capacity.
            if len(contexts):
                resident_warps = kernel_warps * min(
                    1.0, self.config.max_concurrent_tbs / len(contexts)
                )
            else:
                resident_warps = 0.0
            ramp_ops = int(resident_warps) * self.config.max_outstanding_per_warp
            warmup_target = max(
                (kernel_ops * fidelity.warmup) // fidelity.period, ramp_ops
            )
            detailed_span = fidelity.warmup + fidelity.window
            detailed_target = max(
                -(-(kernel_ops * detailed_span) // fidelity.period),
                warmup_target + (kernel_ops * fidelity.window) // fidelity.period,
            )
            cycles_start = engine.now
            completed_start = self._requests_completed()
            window_start = None
            seg_mark = None
            segments = []
            self.scheduler.load_kernel(contexts)
            while True:
                engine.run(until=engine.now + poll, max_events=remaining_events())
                done = self.scheduler.idle and engine.idle
                completed = self._requests_completed() - completed_start
                if window_start is None:
                    if done or completed >= warmup_target:
                        window_start = (engine.now, completed)
                        seg_mark = (
                            engine.now, completed, *self._dram_row_state()
                        )
                else:
                    seg_mark = self._sample_segment(
                        segments, seg_mark, completed
                    )
                if done or completed >= detailed_target:
                    break
            if not self.scheduler.idle:
                # Freeze: measure the window (with its trajectory),
                # fast-forward the rest of the kernel, and let the
                # in-flight requests drain — the drain is recorded so
                # its real cycles are netted out of the extrapolation
                # (frozen work and the drain would have overlapped).
                accounting.record_window(
                    engine.now - window_start[0],
                    completed - window_start[1],
                    segments,
                )
                skipped, noc_flits, miss_frac = self._freeze_with_miss_frac()
                accounting.record_fast_forward(
                    skipped, noc_flits, miss_frac=miss_frac
                )
                drain_from = engine.now
                drained_from = self._requests_completed()
                engine.run(max_events=remaining_events())
                if not self.scheduler.idle or not engine.idle:
                    raise RuntimeError(
                        "sampled kernel failed to drain after its freeze "
                        f"({self.scheduler.in_flight} TBs in flight)"
                    )
                accounting.record_drain(
                    engine.now - drain_from,
                    self._requests_completed() - drained_from,
                )
            else:
                # The kernel finished inside its detailed share:
                # everything is real, nothing to extrapolate.
                accounting.record_window(engine.now - cycles_start, completed)
        self._finished = True
        return self._collect(workload, sampled=(fidelity, accounting))

    # ------------------------------------------------------------------
    # Auto fidelity: structure-planned measurement + kernel transfer
    # ------------------------------------------------------------------
    def _run_auto(
        self,
        workload: Workload,
        fidelity: AutoFidelity,
        max_events: Optional[int] = None,
        plan=None,
        state_cache=None,
        state_key=None,
    ) -> SimulationResult:
        """Auto-planned sampled run (``--fidelity auto``).

        :func:`plan_auto` classifies each kernel from the workload's
        structure and footprint fingerprints alone.  Measured kernels
        run in detail — large ones (>= ``min_freeze_ops`` ops)
        additionally open a measurement window at ``warmup_frac`` of
        completions and skip-middle freeze at ``freeze_frac``: the
        steady middle is extrapolated at the drift-corrected window
        rate while a per-warp detailed tail simulates the
        end-of-kernel decay and drain for real.  Estimated kernels are
        repeats of an already-measured class: their traffic is
        replayed functionally through the warm L1/LLC/row state their
        siblings built (warmed-state reuse — the fixed per-kernel ramp
        cost is paid once per class, not once per kernel) and their
        cycles are the mean of the plan-chosen source class's measured
        warm boundaries (exact content twin when one was measured,
        else the shape class).

        Kernel boundaries are taken at the TB-retire poll, not at full
        event drain, so trailing writebacks overlap the next kernel's
        ramp just as they do in exact mode.
        """
        accounting = SampledAccounting()
        engine = self.engine
        if plan is None:
            plan = plan_auto(workload, fidelity, self.address_map)
        if len(plan) != len(workload.kernels):
            raise ValueError(
                f"auto-fidelity plan has {len(plan)} entries for a workload "
                f"with {len(workload.kernels)} kernels"
            )

        def remaining_events() -> Optional[int]:
            if max_events is None:
                return None
            return max(0, max_events - engine.events_processed)

        class_cycles: Dict[tuple, List[float]] = {}
        class_flit_rates: Dict[tuple, List[float]] = {}
        # Warmed state flows forward only: an estimated kernel after
        # the last detailed one has no downstream consumer for the
        # cache/row state its replay would build, so the replay (and
        # even the trace preparation) is skipped outright and its NoC
        # flits are estimated from the class's flits-per-op instead.
        last_detailed = max(
            (i for i, entry in enumerate(plan) if entry[0] != "estimate"),
            default=-1,
        )
        for kernel_index, kernel in enumerate(workload.kernels):
            mode, source, keys, kernel_ops, freeze_ok = plan[kernel_index]
            exemplars = class_cycles.get(source) if mode == "estimate" else None
            if exemplars:
                mean_cycles = sum(exemplars) / len(exemplars)
                if kernel_index > last_detailed:
                    rates = class_flit_rates.get(source)
                    rate = sum(rates) / len(rates) if rates else 0.0
                    accounting.record_estimated_kernel(
                        kernel_ops, mean_cycles,
                        noc_flits=int(round(rate * kernel_ops)),
                    )
                    continue
                stream = self._kernel_stream(
                    kernel, kernel_index, state_cache, state_key,
                    workload=workload,
                )
                skipped, flits = self._replay_stream(stream)
                accounting.record_estimated_kernel(
                    skipped, mean_cycles, noc_flits=flits
                )
                if kernel_ops:
                    for key in keys:
                        class_flit_rates.setdefault(key, []).append(
                            flits / kernel_ops
                        )
                continue
            prepare = self._prepare_kernel(kernel)
            contexts = [TBContext(tb, kernel_index, prepare) for tb in kernel.tbs]
            flits_before = (
                self.request_noc.stats.flits + self.response_noc.stats.flits
                + accounting.ff_noc_flits
            )
            kernel_cycles = self._run_kernel_measured(
                contexts, kernel_ops, fidelity, accounting, remaining_events,
                freeze_ok=freeze_ok,
            )
            kernel_flits = (
                self.request_noc.stats.flits + self.response_noc.stats.flits
                + accounting.ff_noc_flits - flits_before
            )
            if mode != "cold":
                for key in keys:
                    class_cycles.setdefault(key, []).append(kernel_cycles)
                    if kernel_ops:
                        class_flit_rates.setdefault(key, []).append(
                            kernel_flits / kernel_ops
                        )
        engine.run(max_events=remaining_events())
        if not self.scheduler.idle or not engine.idle:
            raise RuntimeError(
                "auto-fidelity run failed to drain its trailing events "
                f"({self.scheduler.in_flight} TBs in flight)"
            )
        self._finished = True
        return self._collect(workload, sampled=(fidelity, accounting))

    def _run_kernel_measured(
        self, contexts, kernel_ops, fidelity, accounting, remaining_events,
        freeze_ok=True,
    ) -> float:
        """Run one kernel in detail (frozen if large); return its cycles.

        Large kernels (>= ``min_freeze_ops`` ops) use the skip-middle
        freeze: a measurement window opens at ``warmup_frac`` of
        completions and closes at ``freeze_frac``, at which point the
        steady *middle* of every warp's remaining stream is replayed
        functionally while each warp keeps a detailed tail
        (``keep_share`` of its remainder).  The tail then runs on the
        engine, so the end-of-kernel parallelism decay and pipeline
        drain — whose cycles-per-request bear no fixed relation to the
        steady-state window rate — are simulated, and only the
        regime-matched middle is extrapolated at the window's
        (drift-corrected) rate.

        The returned boundary cycles include the kernel's extrapolated
        share when it froze.  *freeze_ok* comes from the plan: kernels
        whose cycles seed sibling estimates run unfrozen so the
        transferred value carries no extrapolation bias.  Small
        kernels never freeze either way: a kernel with fewer ops than
        the machine's in-flight capacity has no steady state to
        measure, so it runs exactly.
        """
        engine = self.engine
        poll = self._SAMPLE_POLL_CYCLES
        kernel_start = engine.now
        completed_start = self._requests_completed()
        ext_before = accounting.extrapolated_cycles()
        freeze_target = None
        warmup_target = 0
        if freeze_ok and kernel_ops >= fidelity.min_freeze_ops:
            freeze_target = max(1, int(kernel_ops * fidelity.freeze_frac))
            warmup_target = int(kernel_ops * fidelity.warmup_frac)
        self.scheduler.load_kernel(contexts)
        window_start = None
        seg_mark = None
        segments = []
        frozen = False
        completed = 0
        while True:
            engine.run(until=engine.now + poll, max_events=remaining_events())
            completed = self._requests_completed() - completed_start
            if self.scheduler.idle:
                break
            budget = remaining_events()
            if budget is not None and budget == 0:
                raise RuntimeError(
                    "auto-fidelity kernel exhausted max_events before "
                    f"completing ({self.scheduler.in_flight} TBs in flight)"
                )
            if freeze_target is None or frozen:
                continue
            if window_start is None:
                if completed >= warmup_target:
                    window_start = (engine.now, completed)
                    seg_mark = (engine.now, completed, *self._dram_row_state())
                continue
            seg_mark = self._sample_segment(segments, seg_mark, completed)
            if (
                completed >= freeze_target
                and completed > window_start[1]
                and engine.now > window_start[0]
            ):
                accounting.record_window(
                    engine.now - window_start[0],
                    completed - window_start[1],
                    segments,
                )
                skipped, flits, miss_frac = self._freeze_with_miss_frac(
                    fidelity.keep_share
                )
                accounting.record_fast_forward(
                    skipped, flits, miss_frac=miss_frac
                )
                frozen = True
        if not frozen:
            accounting.record_window(engine.now - kernel_start, completed)
        extrapolated = accounting.extrapolated_cycles() - ext_before
        return (engine.now - kernel_start) + extrapolated

    # ------------------------------------------------------------------
    # Shared sampled-mode telemetry
    # ------------------------------------------------------------------
    def _requests_completed(self) -> int:
        return sum(sm.ops_completed for sm in self.sms)

    def _dram_row_state(self):
        """Cumulative (row_hits, accesses) across all controllers."""
        hits = accesses = 0
        for controller in self.dram.controllers:
            hits += controller.row_hits
            accesses += controller.accesses
        return hits, accesses

    def _system_in_flight(self) -> int:
        """Memory ops issued and not yet completed, machine-wide."""
        return sum(sm.in_flight_ops for sm in self.sms)

    def _sample_segment(self, segments, seg_mark, completed):
        """Append one trajectory segment since *seg_mark*; return new mark.

        Segments feed :meth:`SampledAccounting.record_window`'s drift
        fit: per-poll deltas of (cycles, completed requests, row hits,
        row accesses) plus the instantaneous in-flight population (the
        issue-pressure gate excluding ramp/drain segments).
        """
        hits, accesses = self._dram_row_state()
        now = self.engine.now
        d_cycles = now - seg_mark[0]
        if d_cycles > 0:
            segments.append((
                d_cycles,
                completed - seg_mark[1],
                hits - seg_mark[2],
                accesses - seg_mark[3],
                self._system_in_flight(),
            ))
        return (now, completed, hits, accesses)

    def _freeze_with_miss_frac(self, keep_share: float = 0.0):
        """Freeze the current kernel, observing the replay's row-miss mix.

        Returns ``(skipped_ops, noc_flits, miss_frac)`` where
        *miss_frac* is the row-miss fraction of the DRAM traffic the
        replay pushed through the bank state machines (None when the
        replay generated no DRAM accesses) — the projection target of
        the accounting's drift correction.  *keep_share* is forwarded
        to :meth:`_freeze_kernel` (skip-middle freeze).
        """
        hits_before, accesses_before = self._dram_row_state()
        skipped, flits = self._freeze_kernel(keep_share)
        hits_after, accesses_after = self._dram_row_state()
        replayed = accesses_after - accesses_before
        if replayed > 0:
            miss_frac = 1.0 - (hits_after - hits_before) / replayed
        else:
            miss_frac = None
        return skipped, flits, miss_frac

    def _active_warps(self) -> List[WarpContext]:
        """In-flight warps with un-issued ops, in SM/TB/warp order."""
        return [
            warp
            for sm in self.sms
            for tb in sm.active_tbs
            for warp in tb.warps
            if not warp.issued_all
        ]

    def _freeze_kernel(self, keep_share: float = 0.0):
        """Fast-forward the current kernel's skippable remainder.

        Two populations are skipped: the in-flight warps' remaining
        ops (their cursors jump forward; pending engine events resolve
        through the issue path's cursor guards), and the TBs still
        queued for dispatch (replayed wholesale as a
        :class:`~repro.sim.replay.KernelStream`, the same path an
        estimated kernel takes).

        With ``keep_share`` > 0 (the skip-middle freeze) each in-flight
        warp keeps that share of its remaining ops — at least one — as
        a detailed tail, and the same share of the queued TBs stays
        queued: only the steady *middle* of the kernel is skipped, so
        the end-of-kernel parallelism decay and drain run for real.
        Returns ``(ops_skipped, estimated_noc_flits)``.
        """
        # Group 0: the in-flight warps, on their real SMs.  A warp
        # parked on a full MSHR file replays from its *current* op,
        # whose L1 miss was already counted at the failed issue — the
        # replay's extra L1 touch mirrors the re-access an exact-mode
        # retry performs, and dropping the op would instead lose its
        # LLC/DRAM traffic.
        streams = []
        for warp in self._active_warps():
            keep = 0
            if keep_share > 0.0:
                keep = max(1, int((warp.n_ops - warp.op) * keep_share))
            chunk = warp.fast_forward_middle(keep)
            if chunk[0]:
                streams.append((warp.tb.sm_id, chunk))
        skipped, flits = self._replay_interleaved(streams)
        # Later groups: queued TBs in dispatch order, one machine
        # window at a time, spread round-robin across the SM L1s.
        keep_tbs = 0
        if keep_share > 0.0:
            keep_tbs = int(round(self.scheduler.pending * keep_share))
        queued = self.scheduler.take_pending(keep_last=keep_tbs)
        stream = replay_plane.build_kernel_stream(
            [tb.trace for tb in queued], self._wave_cap
        )
        queued_skipped, queued_flits = self._replay_stream(stream)
        return skipped + queued_skipped, flits + queued_flits

    def _replay_interleaved(self, streams):
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
        return replay_plane.replay_ops(self, sm_ids, *merged)

    def _kernel_stream(
        self, kernel, kernel_index, state_cache, state_key, workload=None
    ):
        """The merged replay stream of an estimated kernel.

        Loads the stream from *state_cache* when connected (keyed by
        the run's scheme-independent *state_key* document plus the
        kernel index and the machine's wave capacity), building and
        storing it on a miss.
        """
        wave_cap = self._wave_cap
        if state_cache is None or state_key is None:
            return replay_plane.build_kernel_stream(kernel.tbs, wave_cap)
        key = state_cache.key_for(state_key, kernel_index, wave_cap)
        stream = state_cache.get(key)
        if stream is None:
            stream = replay_plane.build_kernel_stream(kernel.tbs, wave_cap)
            state_cache.put(
                key, stream,
                benchmark=getattr(workload, "abbreviation", None),
                kernel=kernel_index,
            )
        return stream

    def _replay_stream(self, stream):
        """Replay a :class:`~repro.sim.replay.KernelStream`.

        The one replay path for whole TBs, whether an estimated
        kernel's or the queued tail of a frozen one: the fast-forward
        SM cursor advances once per TB (empty ones included), each op
        lands on the SM its TB is spread to, the whole stream is
        scheme-mapped and decoded in one pass, and each wave is
        replayed as one :func:`~repro.sim.replay.replay_ops` call
        (preserving the per-wave DRAM grouping).  Returns
        ``(ops_replayed, estimated_noc_flits)``.
        """
        cursor0 = self._ff_sm_cursor
        self._ff_sm_cursor += stream.n_tbs
        if not stream.n_ops:
            return 0, 0
        mapped = np.atleast_1d(self.scheme.map(stream.addresses))
        lines, channels, banks, rows, slices = self._coords_of(mapped)
        n_sms = len(self.sms)
        sm_ids = (cursor0 + stream.tb_ordinals.astype(np.int64)) % n_sms
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
                self, sm_ids[view], lines[view], channels[view],
                banks[view], rows[view], slices[view], stream.writes[view],
            )
            total_skipped += skipped
            total_flits += flits
        return total_skipped, total_flits

    # ------------------------------------------------------------------
    # Metric collection
    # ------------------------------------------------------------------
    def _collect(self, workload: Workload, sampled=None) -> SimulationResult:
        detailed_cycles = max(self.engine.now, 1)
        now = detailed_cycles
        l1_accesses = sum(sm.l1.stats.accesses for sm in self.sms)
        l1_misses = sum(sm.l1.stats.misses for sm in self.sms)
        llc_accesses = sum(s.cache.stats.accesses for s in self.slices)
        llc_misses = sum(s.cache.stats.misses for s in self.slices)
        noc_packets = self.request_noc.stats.packets + self.response_noc.stats.packets
        noc_total_latency = (
            self.request_noc.stats.total_latency + self.response_noc.stats.total_latency
        )
        noc_flits = self.request_noc.stats.flits + self.response_noc.stats.flits
        metadata_extra: Dict[str, object] = {}
        if sampled is not None:
            # Sampled fidelity: total cycles = real detailed cycles +
            # the fast-forwarded phases' extrapolated share; counters
            # (cache stats, DRAM activity, the NoC flits estimated for
            # fast-forwarded traffic) already integrate both kinds of
            # phase, so the count-based power models stay consistent.
            fidelity, accounting = sampled
            now = detailed_cycles + accounting.extrapolated_cycles()
            noc_flits += accounting.ff_noc_flits
            metadata_extra = {
                "fidelity": fidelity_to_json(fidelity),
                "sampled": dict(
                    accounting.metadata(),
                    detailed_cycles=detailed_cycles,
                    peak_dram_queue_depth=max(
                        (c.peak_queue_depth for c in self.dram.controllers),
                        default=0,
                    ),
                ),
            }
        instructions = workload.approx_instructions
        gpu_power_model = GPUPowerModel(
            default_gpu_power_params(), self.config.clock_mhz
        )
        gpu_power = gpu_power_model.average_power(
            now, instructions, l1_accesses, llc_accesses, noc_flits
        )
        return SimulationResult(
            workload=workload.abbreviation,
            scheme=self.scheme.name,
            cycles=now,
            requests=workload.n_requests,
            l1_miss_rate=l1_misses / l1_accesses if l1_accesses else 0.0,
            llc_miss_rate=llc_misses / llc_accesses if llc_accesses else 0.0,
            llc_accesses=llc_accesses,
            noc_mean_latency=noc_total_latency / noc_packets if noc_packets else 0.0,
            llc_parallelism=self.llc_tracker.value(now),
            channel_parallelism=self.channel_tracker.value(now),
            bank_parallelism=combined_parallelism(self.bank_trackers, now),
            row_hit_rate=self.dram.row_hit_rate(),
            dram_activates=self.dram.activates,
            dram_reads=self.dram.reads,
            dram_writes=self.dram.writes,
            dram_power=self.dram.power(now),
            gpu_power=gpu_power,
            instructions=instructions,
            metadata={
                "events": self.engine.events_processed,
                "max_tbs_in_flight": self.scheduler.max_in_flight,
                "n_sms": self.config.n_sms,
                "dram_config": self.timing.name,
                **metadata_extra,
            },
        )


def simulate(
    workload: Workload,
    scheme: MappingScheme,
    config: Optional[GPUConfig] = None,
    timing: Optional[DRAMTiming] = None,
    dram_power_params: Optional[DRAMPowerParams] = None,
    fidelity: Fidelity = EXACT,
) -> SimulationResult:
    """Convenience wrapper: build a system, run one workload, return results."""
    system = GPUSystem(
        scheme, config=config, timing=timing, dram_power_params=dram_power_params
    )
    return system.run(workload, fidelity=fidelity)
