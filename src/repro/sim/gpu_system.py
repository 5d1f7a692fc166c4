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
``at_call``/``after_call`` with pre-bound callbacks.  Those callbacks
make the machine one reference cycle, so a run ends by dropping them
(:meth:`GPUSystem._detach`): reference counting then frees a finished
machine as soon as its owner lets go of it.

Instrumentation captures everything the paper's evaluation plots:
execution cycles, NoC packet latency (13a), LLC miss rate (13b),
LLC/channel/bank-level parallelism (14, from per-request busy
intervals), row-buffer hit rate (15), the DRAM power breakdown (16)
and system power (11/17).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.address_map import AddressMap
from ..core.mapper import decode_fields, dram_channels
from ..core.schemes import MappingScheme
from ..dram.power import DRAMPowerParams
from ..dram.scheduler import DRAMRequest
from ..dram.system import DRAMSystem
from ..dram.timing import DRAMTiming, gddr5_timing
from ..gpu.config import GPUConfig, baseline_config
from ..gpu.llc import LLCSlice
from ..gpu.noc import Crossbar
from ..gpu.power import GPUPowerModel, default_gpu_power_params
from ..gpu.sm import SM, MemRequest
from ..gpu.tb_scheduler import TBScheduler
from ..gpu.thread_block import TBContext
from ..workloads.base import Workload
from .engine import Engine
from .fidelity import EXACT, parse_fidelity
from .metrics import busy_time
from .results import SimulationResult

__all__ = ["GPUSystem", "dram_coords", "simulate"]

def dram_coords(address_map: AddressMap, addresses: np.ndarray):
    """``(channels, banks, rows)`` of *addresses* under *address_map*."""
    fields = decode_fields(address_map, addresses)
    return dram_channels(address_map, fields), fields["bank"], fields["row"]


class GPUSystem:
    """One simulated GPU + memory system, ready to run one workload."""

    def __init__(
        self,
        scheme: MappingScheme,
        config: Optional[GPUConfig] = None,
        timing: Optional[DRAMTiming] = None,
        dram_power_params: Optional[DRAMPowerParams] = None,
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

        # Pre-bound callbacks for the engine's closure-free scheduling:
        # no lambda or bound-method allocation per packet.
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
        """Lines, channels, banks, rows and LLC slices of mapped addresses."""
        channels, banks, rows = dram_coords(self.address_map, mapped)
        line_mask = ~np.uint64(self.config.line_bytes - 1)
        lines = (mapped & line_mask).astype(np.int64)
        return lines, channels, banks, rows, self._slice_of(channels, banks)

    def _prepare_kernel(self, kernel) -> Tuple[list, ...]:
        """Batched trace preparation for one kernel's warps.

        The kernel's TB columns are concatenated, and the addresses
        mapped and decoded in a single vectorized pass, into nine
        kernel-wide per-op lists ``(gaps, writes, lines, channels,
        banks, rows, slices, l1_sets, llc_sets)`` holding every warp's
        ops back to back in TB then warp order.  That is the
        :class:`TBContext` prepare contract: a warp shares these lists
        and owns the range from its offset to the next warp's (see
        :meth:`_kernel_contexts`).  The BIM, the field decode and the
        set hash are elementwise, so this is bit-identical to
        preparing each warp on its own, but the numpy fixed cost and
        the list allocations are paid once per kernel instead of once
        per warp.  Every L1 shares one geometry and every LLC slice
        another, so one :meth:`set_indices_array` pass per geometry
        covers all caches.

        Only stored lines can become dirty LLC victims, so the unique
        store lines are decoded once into the run's victim memo.
        """
        addresses = np.concatenate([tb.addresses for tb in kernel.tbs])
        if not addresses.size:
            return ([],) * 9
        mapped = np.atleast_1d(self.scheme.map(addresses))
        lines, channels, banks, rows, slices = self._coords_of(mapped)
        l1_sets = self.sms[0].l1.set_indices_array(lines)
        llc_sets = self.slices[0].cache.set_indices_array(lines)
        gaps = np.concatenate([tb.gaps for tb in kernel.tbs])
        writes = np.concatenate([tb.writes for tb in kernel.tbs])
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
        channels, banks, rows = dram_coords(
            self.address_map, lines.astype(np.uint64)
        )
        self._victim_coords.update(zip(
            lines.tolist(),
            zip(channels.tolist(), banks.tolist(), rows.tolist()),
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
            self.engine.at_call(self.engine.now, self._flush_dram_cb, None)

    def _flush_dram_batch(self, _: None) -> None:
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

    def run(self, workload: Workload, auto=None) -> SimulationResult:
        """Simulate *workload* to completion and collect all metrics.

        Without *auto* every cycle of every kernel runs on the event
        engine (exact fidelity).  With an :class:`~repro.sim.auto.Auto`
        (a kernel plan and a replay-stream lookup) the run measures,
        freezes or estimates each kernel as the plan says (see
        :mod:`repro.sim.auto`).  Returned or raised, the run ends with
        :meth:`_detach`.
        """
        if self._finished or self.scheduler.tbs_dispatched:
            raise RuntimeError("GPUSystem instances are single-use; build a new one")
        try:
            limit = self.config.max_warps_per_sm
            for kernel in workload.kernels:
                for tb in kernel.tbs:
                    if tb.n_warps > limit:
                        # No SM could ever take this TB: the run would stall.
                        raise ValueError(
                            f"TB {tb.tb_id} has {tb.n_warps} warps, more "
                            f"than an SM holds (max_warps_per_sm={limit})"
                        )
            if auto is not None:
                return auto.run(self, workload)
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
                    "simulation drained its event queue before the workload "
                    f"finished ({self.scheduler.in_flight} TBs in flight)"
                )
            return self._collect(workload)
        finally:
            self._finished = True
            self._detach()

    def _detach(self) -> None:
        """Break the machine's reference cycles: the run is over.

        Every component keeps pre-bound callbacks to itself, and hooks
        back into this system or the TB scheduler, so a machine is one
        reference cycle; a failed run adds the queued events and the
        TBs in flight.  Dropping them lets reference counting free a
        finished machine (its caches, DRAM queues and victim memo) as
        soon as its owner lets go, instead of at the cycle collector's
        next full pass.  Counters, stats, cache contents and the victim
        memo stay readable.
        """
        self.engine.clear()
        for sm in self.sms:
            sm.detach()
        for llc in self.slices:
            llc.detach()
        for controller in self.dram.controllers:
            controller.detach()
        self.scheduler.detach()
        self._slice_on_read = self._forward_read_cb = None
        self._deliver_fill_cb = self._store_delivered_cb = None
        self._flush_dram_cb = None

    # ------------------------------------------------------------------
    # Metric collection
    # ------------------------------------------------------------------
    def _collect(
        self, workload: Workload, skipped_cycles: int = 0,
        skipped_flits: int = 0, metadata: Optional[dict] = None,
    ) -> SimulationResult:
        """The run's result.

        An auto run adds the estimated cycles and NoC flits of the work
        it did not simulate, and its own *metadata* entries.
        """
        now = max(self.engine.now, 1) + skipped_cycles
        l1_accesses = sum(sm.l1.stats.accesses for sm in self.sms)
        l1_misses = sum(sm.l1.stats.misses for sm in self.sms)
        llc_accesses = sum(s.cache.stats.accesses for s in self.slices)
        llc_misses = sum(s.cache.stats.misses for s in self.slices)
        noc_packets = self.request_noc.stats.packets + self.response_noc.stats.packets
        noc_total_latency = (
            self.request_noc.stats.total_latency + self.response_noc.stats.total_latency
        )
        noc_flits = (
            self.request_noc.stats.flits + self.response_noc.stats.flits
            + skipped_flits
        )
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
                **(metadata or {}),
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
    """Convenience wrapper: build a system, run one workload, return results.

    An auto *fidelity* plans the workload here and builds each replay
    stream when the run asks for it (:meth:`~repro.sim.auto.Auto.standalone`).
    """
    system = GPUSystem(
        scheme, config=config, timing=timing, dram_power_params=dram_power_params
    )
    auto = None
    if parse_fidelity(fidelity) != EXACT:
        from .auto import Auto  # repro.sim.auto imports this module

        auto = Auto.standalone(workload, scheme.address_map)
    return system.run(workload, auto=auto)
