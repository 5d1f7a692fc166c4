"""Per-process run execution.

:meth:`RunContext.execute` is the single place a :class:`RunConfig`
is turned into a :class:`~repro.sim.results.SimulationResult`; both the
in-process path (``workers <= 1``) and the ``ProcessPoolExecutor``
workers (one config per task, through :func:`execute_config`) call
it, so parallel and serial sweeps are computed by the same code.

A module-level :class:`RunContext` memoizes the expensive immutable
inputs (workloads, schemes, the RMP suite entropy profile, auto
fidelity's kernel plans and replay streams) for the lifetime of the
process.  Worker processes are reused across tasks by the executor, so
e.g. the suite-wide entropy profile RMP needs is computed at most once
per worker per (memory, scale, window) triple.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple, Union

import numpy as np

from ..core.address_map import AddressMap
from ..core.entropy import (
    EntropyProfile,
    application_entropy_profile,
    average_entropy_profile,
)
from ..core.schemes import MappingScheme
from ..gpu.config import config_with_sms
from ..registry import memory_config
from ..sim.auto import Auto, KernelPlan, plan_auto
from ..sim.fidelity import AUTO
from ..sim.gpu_system import GPUSystem
from ..sim.results import SimulationResult
from ..specs import SchemeSpec, WorkloadSpec
from ..workloads.base import Workload
from ..workloads.suite import ALL_BENCHMARKS
from .config import RunConfig
from .state_cache import StateCache

__all__ = [
    "RunContext",
    "execute_config",
    "process_context",
]


class RunContext:
    """Memoized builders for everything a run needs.

    Deterministic: every product is a pure function of its key, so two
    contexts (in different processes) always agree.  :attr:`state_cache`
    is the context's memo of auto fidelity's replay streams.
    """

    def __init__(self) -> None:
        self._workloads: Dict[Tuple[WorkloadSpec, float], Workload] = {}
        self._profiles: Dict[
            Tuple[WorkloadSpec, str, float, int], EntropyProfile
        ] = {}
        self._suite_profiles: Dict[Tuple[str, float, int], np.ndarray] = {}
        self._schemes: Dict[
            Tuple[SchemeSpec, int, str, float, int], MappingScheme
        ] = {}
        self._auto_plans: Dict[
            Tuple[WorkloadSpec, float, str], Tuple[KernelPlan, ...]
        ] = {}
        self.state_cache = StateCache()

    # -- immutable hardware descriptions --------------------------------
    def address_map(self, memory: str) -> AddressMap:
        """The address map of a memory technology (gddr5 or stacked).

        Served from :func:`repro.registry.memory_config`, which
        memoizes per process.
        """
        return memory_config(memory).address_map

    # -- memoized inputs -------------------------------------------------
    def workload(
        self, benchmark: Union[str, WorkloadSpec], scale: float
    ) -> Workload:
        spec = WorkloadSpec.from_value(benchmark)
        key = (spec, scale)
        if key not in self._workloads:
            self._workloads[key] = spec.build(scale=scale)
        return self._workloads[key]

    def entropy_profile(
        self,
        benchmark: Union[str, WorkloadSpec],
        memory: str,
        scale: float,
        window: int,
    ) -> EntropyProfile:
        """Window-based entropy profile of one workload (BASE addresses).

        Shared memo for both the figure scripts and RMP construction,
        so each expensive profile is computed once per process.
        """
        spec = WorkloadSpec.from_value(benchmark)
        key = (spec, memory, scale, window)
        if key not in self._profiles:
            self._profiles[key] = application_entropy_profile(
                self.workload(spec, scale).entropy_kernel_inputs(),
                self.address_map(memory), window, label=spec.name,
            )
        return self._profiles[key]

    def suite_average_entropy(
        self, memory: str, scale: float, window: int
    ) -> np.ndarray:
        """Suite-wide per-bit entropy profile (feeds RMP, Section IV-B)."""
        key = (memory, scale, window)
        if key not in self._suite_profiles:
            self._suite_profiles[key] = average_entropy_profile([
                self.entropy_profile(b, memory, scale, window)
                for b in ALL_BENCHMARKS
            ])
        return self._suite_profiles[key]

    def scheme(
        self,
        scheme: Union[str, SchemeSpec],
        seed: int,
        memory: str,
        profile_scale: float,
        window: int,
    ) -> MappingScheme:
        spec = SchemeSpec.from_value(scheme)
        key = (spec, seed, memory, profile_scale, window)
        if key not in self._schemes:
            entropy_by_bit = None
            if spec.needs_entropy_profile():
                entropy_by_bit = self.suite_average_entropy(
                    memory, profile_scale, window
                )
            self._schemes[key] = spec.build(
                self.address_map(memory), seed=seed,
                entropy_by_bit=entropy_by_bit,
            )
        return self._schemes[key]

    def auto_plan(
        self,
        benchmark: Union[str, WorkloadSpec],
        scale: float,
        memory: str,
    ) -> Tuple[KernelPlan, ...]:
        """One workload's :func:`~repro.sim.auto.plan_auto`, memoized.

        It is fingerprinted against the memory's *base* address map,
        never a scheme's, so one plan serves every scheme of a sweep.
        """
        spec = WorkloadSpec.from_value(benchmark)
        key = (spec, scale, memory)
        if key not in self._auto_plans:
            self._auto_plans[key] = plan_auto(
                self.workload(spec, scale), self.address_map(memory)
            )
        return self._auto_plans[key]

    def auto(self, config: RunConfig) -> Auto:
        """An auto run's plan and its memoized replay-stream lookup.

        The lookup keeps each estimated kernel's stream in
        :attr:`state_cache` under the run's workload spec, scale,
        memory and SM count plus the kernel index and the machine's
        wave capacity.  The scheme is deliberately absent: the stream
        is raw pre-mapping addresses, so every scheme of a sweep shares
        it.
        """
        identity = (config.benchmark, config.scale, config.memory, config.n_sms)
        memo = self.state_cache

        def stream(kernel_index, kernel, wave_cap):
            return memo.stream(
                (*identity, kernel_index, wave_cap), kernel.tbs, wave_cap
            )

        return Auto(
            self.auto_plan(config.benchmark, config.scale, config.memory),
            stream,
        )

    # -- execution -------------------------------------------------------
    def execute(self, config: RunConfig) -> SimulationResult:
        """Build a fresh system and run *config* to completion."""
        workload = self.workload(config.benchmark, config.scale)
        scheme = self.scheme(
            config.scheme, config.seed, config.memory,
            config.profile_scale, config.window,
        )
        memory = memory_config(config.memory)
        system = GPUSystem(
            scheme,
            config=config_with_sms(config.n_sms),
            timing=memory.timing,
            dram_power_params=memory.power_params,
        )
        auto = self.auto(config) if config.fidelity == AUTO else None
        return system.run(workload, auto=auto)


# One context per process, created lazily.  ProcessPoolExecutor workers
# call execute_config many times; the context amortizes trace
# building and scheme construction across those calls.
_PROCESS_CONTEXT: Optional[RunContext] = None


def process_context() -> RunContext:
    """This process's shared :class:`RunContext` (created on first use)."""
    global _PROCESS_CONTEXT
    if _PROCESS_CONTEXT is None:
        _PROCESS_CONTEXT = RunContext()
    return _PROCESS_CONTEXT


def execute_config(
    payload: Dict[str, object], fault_spec: Optional[str] = None
) -> Dict[str, object]:
    """Pool entry point: run one config in one task.

    Returns the result dict plus the measured wall seconds, which the
    caller records into the cache's runtime-metadata sidecar.  An
    exception from the run comes back as ``{"error": ...,
    "error_type": ..., "wall_seconds": ...}`` for the parent to
    quarantine; only a process-killing fault (OOM, an injected
    ``exit``) loses the task.

    *fault_spec* is a :class:`~repro.runner.faults.FaultPlan` spec
    string (it crosses the process boundary; plan objects do not).
    Without one the ``REPRO_FAULT_INJECT`` environment variable still
    applies, so CLI chaos smoke runs need no plumbing.
    """
    from .faults import FaultPlan  # worker import kept lazy & cycle-free

    context = process_context()
    plan = FaultPlan.parse(fault_spec) if fault_spec else FaultPlan.from_env()
    config = RunConfig.from_dict(payload)
    started = time.perf_counter()
    try:
        if plan is not None:
            plan.apply(config.benchmark_name, config.scheme_name)
        result = context.execute(config)
    except Exception as error:  # noqa: BLE001 — reported, not hidden
        return {
            "error": f"{type(error).__name__}: {error}",
            "error_type": type(error).__name__,
            "wall_seconds": time.perf_counter() - started,
        }
    return {
        "result": result.to_dict(),
        "wall_seconds": time.perf_counter() - started,
    }
