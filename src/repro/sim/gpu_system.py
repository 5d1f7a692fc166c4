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
traffic is batched per cycle: LLC misses and writeback victims (their
coordinates memoized when their kernel's store lines are decoded)
accumulate, are grouped per channel and scheduled by one FR-FCFS pass
per controller per cycle instead of one Python event per
request.  Warp issue is batched per SM the same way (one issue tick
per port slot, see :mod:`repro.gpu.sm`), and all inter-component
plumbing below schedules through the engine's closure-free
``at_call``/``after_call`` fast path with pre-bound callbacks.

Instrumentation captures everything the paper's evaluation plots:
execution cycles, NoC packet latency (13a), LLC miss rate (13b),
LLC/channel/bank-level parallelism (14, from per-request busy
intervals), row-buffer hit rate (15), the DRAM power breakdown (16)
and system power (11/17).
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, List, Optional, Tuple

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
from ..gpu.thread_block import TBContext
from ..workloads.base import Workload
from . import replay as replay_plane
from .engine import Engine
from .fidelity import (
    AUTO,
    BIG_KERNEL_OPS,
    EXACT,
    EXEMPLARS,
    FREEZE_FRAC,
    MIN_FREEZE_OPS,
    TAIL_FRAC,
    WARMUP_FRAC,
    fidelity_to_json,
    parse_fidelity,
)
from .metrics import SampledAccounting, busy_time
from .results import SimulationResult

__all__ = ["GPUSystem", "plan_auto", "simulate"]

# Share of each in-flight warp's *remaining* ops (and of the queued
# TBs) an auto freeze keeps detailed: the tail that is TAIL_FRAC of the
# whole kernel once FREEZE_FRAC of it has completed.
_KEEP_SHARE = TAIL_FRAC / (1.0 - FREEZE_FRAC)


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

    The quota is 1 for kernels of at least
    :data:`~repro.sim.fidelity.BIG_KERNEL_OPS` ops (their steady phases
    dominate, so one warm exemplar is representative) and
    :data:`~repro.sim.fidelity.EXEMPLARS` for smaller kernels, whose
    warm-repeat noise a single sample would mistake for signal.

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
        quota = 1 if ops >= BIG_KERNEL_OPS else EXEMPLARS
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

        # Busy intervals for the parallelism metrics (Fig. 14), appended
        # as flat ints and integrated once in _collect: (slice, issued,
        # responded) per LLC read and (channel, bank, arrival,
        # completed) per DRAM request.
        self._llc_log: List[int] = []
        self._dram_log: List[int] = []
        self._llc_log_extend = self._llc_log.extend
        self._dram_log_extend = self._dram_log.extend

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

        # SMs.  Without a mapper pipeline cycle an L1 miss goes
        # straight onto the request NoC.
        self._mapper_extra_latency = scheme.extra_latency_cycles
        send_read = (
            self._send_read if self._mapper_extra_latency else self._forward_read
        )
        self.sms: List[SM] = [
            SM(self.engine, self.config, sm_id,
               send_read=send_read, send_write=self._send_write)
            for sm_id in range(self.config.n_sms)
        ]

        self.scheduler = TBScheduler(self.sms, on_kernel_done=self._kernel_done)
        # Exact mode's kernels not yet loaded, the next one last.
        self._kernels_pending: List[List[TBContext]] = []
        self._loading = False
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

        self._slices_per_channel = max(1, self.config.llc_slices // self.timing.channels)

        # Same-cycle DRAM submission batching: misses and writebacks
        # accumulate here and are flushed to the controllers by one
        # event per cycle, so a burst of requests is decoded and
        # scheduled as arrays rather than one Python event each.
        self._dram_reads_pending: List[MemRequest] = []
        self._dram_writebacks_pending: List[int] = []
        self._dram_flush_scheduled = False
        # Writeback victims' line -> (channel, bank, row), filled from
        # each kernel's store lines and, for a line never seen (one a
        # replayed kernel dirtied, say), by the flush.
        self._victim_coords: Dict[int, tuple] = {}

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

    def _prepare_kernel(self, kernel) -> Tuple[list, ...]:
        """Batched trace preparation for one kernel's warps.

        All warp streams of the kernel are concatenated, and the
        addresses mapped and decoded in a single vectorized pass, into
        nine kernel-wide per-op lists ``(gaps, writes, lines,
        channels, banks, rows, slices, l1_sets, llc_sets)`` holding
        every warp's ops back to back in TB then warp order.  That is
        the :class:`TBContext` prepare contract: a warp shares these
        lists and owns the range from its offset to the next warp's
        (see :meth:`_kernel_contexts`).  The BIM, the field decode and
        the set hash are elementwise, so this is bit-identical to
        preparing each warp on its own, but the numpy fixed cost and
        the list allocations are paid once per kernel instead of once
        per warp.  Every L1 shares one geometry and every LLC slice
        another, so one :meth:`set_indices_array` pass per geometry
        covers all caches.

        Only stored lines can become dirty LLC victims, so the unique
        store lines are decoded once into the run's victim memo.
        """
        nonempty = [warp for tb in kernel.tbs for warp in tb.warps if len(warp)]
        if not nonempty:
            return ([],) * 9
        addresses = np.concatenate([t.addresses for t in nonempty])
        mapped = np.atleast_1d(self.scheme.map(addresses))
        lines, channels, banks, rows, slices = self._coords_of(mapped)
        l1_sets = self.sms[0].l1.set_indices_array(lines)
        llc_sets = self.slices[0].cache.set_indices_array(lines)
        gaps = np.concatenate([t.gaps for t in nonempty])
        writes = np.concatenate([t.writes for t in nonempty])
        if writes.any():
            self._remember_victims(np.unique(lines[writes]))
        return tuple(
            field.tolist()
            for field in (gaps, writes, lines, channels, banks, rows, slices,
                          l1_sets, llc_sets)
        )

    def _kernel_contexts(self, kernel, kernel_index: int) -> List[TBContext]:
        """The kernel's TB contexts over its prepared op lists."""
        ops = self._prepare_kernel(kernel)
        contexts = []
        start = 0
        for tb in kernel.tbs:
            context = TBContext(tb, kernel_index, ops, start)
            start = context.warps[-1].end
            contexts.append(context)
        return contexts

    def _remember_victims(self, lines: np.ndarray) -> None:
        """Decode possible writeback victim *lines* into the memo."""
        fields = decode_fields(self.address_map, lines.astype(np.uint64))
        self._victim_coords.update(zip(
            lines.tolist(),
            zip(
                self._channels_of(fields).tolist(),
                fields["bank"].tolist(),
                fields["row"].tolist(),
            ),
        ))

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
        """SM L1 miss -> mapper latency -> request NoC -> LLC slice."""
        self.engine.after_call(
            self._mapper_extra_latency, self._forward_read_cb, request
        )

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
        self._llc_log_extend(
            (request.slice, request.issued_at, self.engine.now)
        )
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

        Reads were decoded at trace preparation and queue as
        themselves; writeback victims, decoded with their kernel's
        store lines (lines the memo lacks are decoded here, as one
        array), become ``DRAMRequest`` objects carrying their channel.
        Each controller gets one batch, so it runs one FR-FCFS pass
        over the cycle's arrivals.
        """
        self._dram_flush_scheduled = False
        now = self.engine.now
        reads, self._dram_reads_pending = self._dram_reads_pending, []
        lines, self._dram_writebacks_pending = self._dram_writebacks_pending, []
        if not lines and len(reads) == 1:
            request = reads[0]
            request.arrival = now
            self.dram.submit_many(request.channel, reads)
            return
        per_channel: Dict[int, list] = {}
        for request in reads:
            request.arrival = now
            channel = request.channel
            batch = per_channel.get(channel)
            if batch is None:
                batch = per_channel[channel] = []
            batch.append(request)
        if lines:
            coords = self._victim_coords
            unseen = [line for line in lines if line not in coords]
            if unseen:
                self._remember_victims(np.asarray(unseen, dtype=np.int64))
            for line in lines:
                channel, bank, row = coords[line]
                batch = per_channel.get(channel)
                if batch is None:
                    batch = per_channel[channel] = []
                batch.append(DRAMRequest(line, bank, row, True, now, channel))
        for channel in sorted(per_channel):
            self.dram.submit_many(channel, per_channel[channel])

    def _dram_complete(self, request, when: int) -> None:
        if request.is_write:
            self._dram_log_extend(
                (request.payload, request.bank, request.arrival, when)
            )
        elif isinstance(request, MemRequest):
            self._dram_log_extend(
                (request.channel, request.bank, request.arrival, when)
            )
            self.slices[request.slice].on_dram_fill(request.line, request.llc_set)
        else:
            raise RuntimeError(f"unexpected DRAM completion: {request!r}")

    # ------------------------------------------------------------------
    # Run control
    # ------------------------------------------------------------------
    def _kernel_done(self) -> None:
        # A kernel of empty TBs completes inside its own load_kernel:
        # the loop in _load_kernels, up the stack, loads the next one.
        if not self._loading:
            self._load_kernels()

    def _load_kernels(self) -> None:
        """Load pending kernels until one is running or none is left."""
        self._loading = True
        while self._kernels_pending and self.scheduler.idle:
            self.scheduler.load_kernel(self._kernels_pending.pop())
        self._loading = False
        self._finished = self.scheduler.idle

    def run(
        self,
        workload: Workload,
        fidelity: str = EXACT,
        auto_plan=None,
        state_cache=None,
        state_key=None,
    ) -> SimulationResult:
        """Simulate *workload* to completion and collect all metrics.

        *fidelity* selects the simulation mode (see
        :mod:`repro.sim.fidelity`): ``"exact"`` (the default) runs
        every cycle on the event engine and is byte-identical to the
        pre-fidelity simulator; ``"auto"`` derives a per-kernel plan
        from the workload's structure (see :func:`plan_auto`), replays
        estimated kernels and frozen kernel middles functionally and
        extrapolates their cycles.

        *auto_plan* optionally supplies a precomputed
        :func:`plan_auto` result (the plan is scheme-independent, so a
        sweep computes it once per workload and shares it across every
        scheme's run).  Ignored unless *fidelity* is auto.

        *state_cache* / *state_key* optionally connect the auto mode's
        estimated-kernel replay to a cross-run
        :class:`~repro.runner.state_cache.StateCache`, the in-process
        memo a :class:`~repro.runner.worker.RunContext` owns:
        *state_key* is the run's scheme-independent identity document
        (workload content, scale, fidelity, memory kind, machine size)
        and the memo keeps each estimated kernel's merged replay stream
        (:class:`~repro.sim.replay.KernelStream`) under it, so the runs
        of a sweep over many schemes build each kernel's warmed-state
        input once.  Ignored unless *fidelity* is auto.
        """
        if self._finished or self.scheduler.tbs_dispatched:
            raise RuntimeError("GPUSystem instances are single-use; build a new one")
        limit = self.config.max_warps_per_sm
        for kernel in workload.kernels:
            for tb in kernel.tbs:
                if len(tb.warps) > limit:
                    # No SM could ever take this TB: the run would stall.
                    raise ValueError(
                        f"TB {tb.tb_id} has {len(tb.warps)} warps, more than "
                        f"an SM holds (max_warps_per_sm={limit})"
                    )
        if parse_fidelity(fidelity) == AUTO:
            return self._run_auto(
                workload, plan=auto_plan,
                state_cache=state_cache, state_key=state_key,
            )
        # Exact mode keeps its own loop: _kernel_done loads the next
        # kernel inside the retiring TB's event, where auto's polled
        # loop would load it up to one poll later and move the bytes.
        self._kernels_pending = [
            self._kernel_contexts(kernel, kernel_index)
            for kernel_index, kernel in enumerate(workload.kernels)
        ][::-1]
        self._load_kernels()
        self.engine.run()
        if not self._finished:
            raise RuntimeError(
                "simulation drained its event queue before the workload finished "
                f"({self.scheduler.in_flight} TBs in flight)"
            )
        return self._collect(workload)

    # ------------------------------------------------------------------
    # Auto fidelity: structure-planned measurement + kernel transfer
    # ------------------------------------------------------------------
    # Cycle granularity of the polling loop that watches for the
    # warmup / freeze completed-op thresholds inside a kernel.
    _SAMPLE_POLL_CYCLES = 64

    def _run_auto(
        self,
        workload: Workload,
        plan=None,
        state_cache=None,
        state_key=None,
    ) -> SimulationResult:
        """Auto-planned approximate run (``--fidelity auto``).

        :func:`plan_auto` classifies each kernel from the workload's
        structure and footprint fingerprints alone.  Measured kernels
        run in detail — large ones (>= ``MIN_FREEZE_OPS`` ops)
        additionally open a measurement window at ``WARMUP_FRAC`` of
        completions and skip-middle freeze at ``FREEZE_FRAC``: the
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
            plan = plan_auto(workload, self.address_map)
        if len(plan) != len(workload.kernels):
            raise ValueError(
                f"auto-fidelity plan has {len(plan)} entries for a workload "
                f"with {len(workload.kernels)} kernels"
            )

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
                    kernel, kernel_index, state_cache, state_key
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
            contexts = self._kernel_contexts(kernel, kernel_index)
            flits_before = (
                self.request_noc.stats.flits + self.response_noc.stats.flits
                + accounting.ff_noc_flits
            )
            kernel_cycles = self._run_kernel_measured(
                contexts, kernel_ops, accounting, freeze_ok=freeze_ok,
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
        engine.run()
        if not self.scheduler.idle or not engine.idle:
            raise RuntimeError(
                "auto-fidelity run failed to drain its trailing events "
                f"({self.scheduler.in_flight} TBs in flight)"
            )
        self._finished = True
        return self._collect(workload, accounting=accounting)

    def _run_kernel_measured(
        self, contexts, kernel_ops, accounting, freeze_ok=True
    ) -> float:
        """Run one kernel in detail (frozen if large); return its cycles.

        Large kernels (>= ``MIN_FREEZE_OPS`` ops) use the skip-middle
        freeze: a measurement window opens at ``WARMUP_FRAC`` of
        completions and closes at ``FREEZE_FRAC``, at which point the
        steady *middle* of every warp's remaining stream is replayed
        functionally while each warp keeps a detailed tail
        (``_KEEP_SHARE`` of its remainder).  The tail then runs on the
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
        if freeze_ok and kernel_ops >= MIN_FREEZE_OPS:
            freeze_target = max(1, int(kernel_ops * FREEZE_FRAC))
            warmup_target = int(kernel_ops * WARMUP_FRAC)
        self.scheduler.load_kernel(contexts)
        window_start = None
        seg_mark = None
        segments = []
        frozen = False
        completed = 0
        while True:
            engine.run(until=engine.now + poll)
            completed = self._requests_completed() - completed_start
            if self.scheduler.idle:
                break
            if engine.idle:
                raise RuntimeError(
                    "simulation drained its event queue before the kernel "
                    f"finished ({self.scheduler.in_flight} TBs in flight)"
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
                skipped, flits, miss_frac = self._freeze_kernel()
                accounting.record_fast_forward(
                    skipped, flits, miss_frac=miss_frac
                )
                frozen = True
        if not frozen:
            accounting.record_window(engine.now - kernel_start, completed)
        extrapolated = accounting.extrapolated_cycles() - ext_before
        return (engine.now - kernel_start) + extrapolated

    # ------------------------------------------------------------------
    # Auto-mode telemetry
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

    def _freeze_kernel(self):
        """Fast-forward the current kernel's skippable remainder.

        Two populations are skipped: the in-flight warps' remaining
        ops (their cursors jump forward; pending engine events resolve
        through the issue path's cursor guards), and the TBs still
        queued for dispatch (replayed wholesale as a
        :class:`~repro.sim.replay.KernelStream`, the same path an
        estimated kernel takes).

        Each in-flight warp keeps ``_KEEP_SHARE`` of its remaining ops
        — at least one — as a detailed tail, and the same share of the
        queued TBs stays queued: only the steady *middle* of the kernel
        is skipped, so the end-of-kernel parallelism decay and drain
        run for real.

        Returns ``(ops_skipped, estimated_noc_flits, miss_frac)``, where
        *miss_frac* is the row-miss fraction of the DRAM traffic the
        replay pushed through the bank state machines (None when the
        replay generated no DRAM accesses) — the projection target of
        the accounting's drift correction.
        """
        hits_before, accesses_before = self._dram_row_state()
        # Group 0: the in-flight warps, on their real SMs.  A warp
        # parked on a full MSHR file replays from its *current* op,
        # whose L1 miss was already counted at the failed issue — the
        # replay's extra L1 touch mirrors the re-access an exact-mode
        # retry performs, and dropping the op would instead lose its
        # LLC/DRAM traffic.
        streams = []
        for sm in self.sms:
            for tb in sm.active_tbs:
                for warp in tb.warps:
                    if warp.issued_all:
                        continue
                    keep = max(1, int((warp.end - warp.op) * _KEEP_SHARE))
                    chunk = warp.fast_forward_middle(keep)
                    if chunk[0]:
                        streams.append((tb.sm_id, chunk))
        skipped, flits = self._replay_interleaved(streams)
        # Later groups: queued TBs in dispatch order, one machine
        # window at a time, spread round-robin across the SM L1s.
        keep_tbs = int(round(self.scheduler.pending * _KEEP_SHARE))
        queued = self.scheduler.take_pending(keep_last=keep_tbs)
        stream = replay_plane.build_kernel_stream(
            [tb.trace for tb in queued], self._wave_cap
        )
        queued_skipped, queued_flits = self._replay_stream(stream)
        hits_after, accesses_after = self._dram_row_state()
        replayed = accesses_after - accesses_before
        if replayed > 0:
            miss_frac = 1.0 - (hits_after - hits_before) / replayed
        else:
            miss_frac = None
        return skipped + queued_skipped, flits + queued_flits, miss_frac

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

    def _kernel_stream(self, kernel, kernel_index, state_cache, state_key):
        """The merged replay stream of an estimated kernel.

        Takes the stream from *state_cache* when connected (keyed by
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
            state_cache.put(key, stream)
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
    def _collect(self, workload: Workload, accounting=None) -> SimulationResult:
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
        if accounting is not None:
            # Auto fidelity: total cycles = real detailed cycles +
            # the fast-forwarded phases' extrapolated share; counters
            # (cache stats, DRAM activity, the NoC flits estimated for
            # fast-forwarded traffic) already integrate both kinds of
            # phase, so the count-based power models stay consistent.
            now = detailed_cycles + accounting.extrapolated_cycles()
            noc_flits += accounting.ff_noc_flits
            metadata_extra = {
                "fidelity": fidelity_to_json(AUTO),
                "sampled": dict(
                    accounting.metadata(),
                    detailed_cycles=detailed_cycles,
                    peak_dram_queue_depth=max(
                        (c.peak_queue_depth for c in self.dram.controllers),
                        default=0,
                    ),
                ),
            }
        llc_parallelism, channel_parallelism, bank_parallelism = (
            self._parallelism()
        )
        # Integrated: the logs are the run's largest leftovers.
        self._llc_log.clear()
        self._dram_log.clear()
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
            llc_parallelism=llc_parallelism,
            channel_parallelism=channel_parallelism,
            bank_parallelism=bank_parallelism,
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

    def _parallelism(self):
        """LLC, channel and bank parallelism (Fig. 14) from the logs."""
        slices, issued, responded = (
            np.array(self._llc_log, dtype=np.int64).reshape(-1, 3).T
        )
        channels, banks, arrived, done = (
            np.array(self._dram_log, dtype=np.int64).reshape(-1, 4).T
        )
        gbanks = channels * self.timing.banks_per_channel + banks
        channel_busy = busy_time(arrived, done, channels)
        return (
            _ratio(busy_time(issued, responded, slices),
                   busy_time(issued, responded)),
            _ratio(channel_busy, busy_time(arrived, done)),
            _ratio(busy_time(arrived, done, gbanks), channel_busy),
        )


def _ratio(busy: int, active: int) -> float:
    return busy / active if active else 0.0


def simulate(
    workload: Workload,
    scheme: MappingScheme,
    config: Optional[GPUConfig] = None,
    timing: Optional[DRAMTiming] = None,
    dram_power_params: Optional[DRAMPowerParams] = None,
    fidelity: str = EXACT,
) -> SimulationResult:
    """Convenience wrapper: build a system, run one workload, return results."""
    system = GPUSystem(
        scheme, config=config, timing=timing, dram_power_params=dram_power_params
    )
    return system.run(workload, fidelity=fidelity)
