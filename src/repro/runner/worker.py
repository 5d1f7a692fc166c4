"""Per-process run execution.

:meth:`RunContext.execute` is the single place a :class:`RunConfig`
is turned into a :class:`~repro.sim.results.SimulationResult`; both the
in-process path (``workers <= 1``) and the ``ProcessPoolExecutor``
workers (one config per task, through :func:`execute_config`) call
it, so parallel and serial sweeps are computed by the same code.

A module-level :class:`RunContext` memoizes the expensive immutable
inputs (workloads, schemes, the RMP suite entropy profile) for the
lifetime of the process.  Worker processes are reused across tasks by
the executor, so e.g. the suite-wide entropy profile RMP needs is
computed at most once per worker per (memory, scale, window) triple.
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
from ..sim.fidelity import AUTO, fidelity_to_json
from ..sim.gpu_system import GPUSystem, plan_auto
from ..sim.results import SimulationResult
from ..specs import SchemeSpec, WorkloadSpec
from ..workloads.base import Workload
from ..workloads.suite import ALL_BENCHMARKS
from .config import RunConfig

__all__ = [
    "RunContext",
    "execute_config",
    "process_context",
]


class RunContext:
    """Memoized builders for everything a run needs.

    Deterministic: every product is a pure function of its key, so two
    contexts (in different processes) always agree.
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
        self._auto_plans: Dict[Tuple[WorkloadSpec, float, str], list] = {}

    # -- immutable hardware descriptions --------------------------------
    def address_map(self, memory: str) -> AddressMap:
        """The address map of a registered memory technology.

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
    ) -> list:
        """The auto-fidelity kernel plan of one workload, memoized.

        Fingerprinted against the memory technology's *base* address
        map — never a scheme's — so the plan (which kernels run
        detailed vs estimated) is identical for every scheme in a
        sweep.  Estimation errors then hit every scheme's cycles the
        same way and largely cancel in Figure-12-style speedup ratios,
        and the warmed-state replay work is planned once per workload
        instead of once per (workload, scheme) run.
        """
        spec = WorkloadSpec.from_value(benchmark)
        key = (spec, scale, memory)
        if key not in self._auto_plans:
            self._auto_plans[key] = plan_auto(
                self.workload(spec, scale), self.address_map(memory)
            )
        return self._auto_plans[key]

    # -- execution -------------------------------------------------------
    def execute(
        self, config: RunConfig, state_cache=None
    ) -> SimulationResult:
        """Build a fresh system and run *config* to completion.

        *state_cache* optionally connects an auto-fidelity run to a
        :class:`~repro.runner.state_cache.StateCache`: the run's
        scheme-independent identity document is derived here (workload
        content identity, scale, fidelity, memory, machine size) and
        handed to the system, which caches each estimated kernel's
        replay stream under it.  The scheme is deliberately absent
        from the document — the stream is scheme-invariant, which is
        the whole point of sharing it across a scheme sweep.
        """
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
        auto_plan = None
        state_key = None
        if config.fidelity == AUTO:
            auto_plan = self.auto_plan(
                config.benchmark, config.scale, config.memory
            )
            if state_cache is not None:
                state_key = {
                    "workload": WorkloadSpec.from_value(
                        config.benchmark
                    ).identity(),
                    "scale": config.scale,
                    "fidelity": fidelity_to_json(config.fidelity),
                    "memory": config.memory,
                    "n_sms": config.n_sms,
                }
        return system.run(
            workload, fidelity=config.fidelity, auto_plan=auto_plan,
            state_cache=state_cache if state_key is not None else None,
            state_key=state_key,
        )


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


_STATE_CACHES: Dict[str, object] = {}


def _state_cache_for(state_dir: Optional[str]):
    """This process's :class:`StateCache` for *state_dir* (memoized).

    Any failure to open the cache directory degrades to running
    without one — the state cache is purely an optimization.
    """
    if not state_dir:
        return None
    if state_dir not in _STATE_CACHES:
        from .state_cache import StateCache

        try:
            _STATE_CACHES[state_dir] = StateCache(state_dir)
        except OSError:
            _STATE_CACHES[state_dir] = None
    return _STATE_CACHES[state_dir]


def execute_config(
    payload: Dict[str, object],
    fault_spec: Optional[str] = None,
    attempt: int = 0,
    state_dir: Optional[str] = None,
) -> Dict[str, object]:
    """Pool entry point: run one config in one task.

    Returns the result dict plus the measured wall seconds, which the
    caller records into the cache's runtime-metadata sidecar.  An
    exception from the run comes back as ``{"error": ...,
    "error_type": ..., "wall_seconds": ...}`` for the parent to retry
    or quarantine; only a process-killing fault (OOM, an injected
    ``exit``) loses the task.

    *fault_spec* is a :class:`~repro.runner.faults.FaultPlan` spec
    string (it crosses the process boundary; plan objects do not) and
    *attempt* the parent's 0-based attempt counter for this config,
    which ``times=N`` fault clauses count against.  Without a spec the
    ``REPRO_FAULT_INJECT`` environment variable still applies, so CLI
    chaos smoke runs need no plumbing.

    *state_dir*, when set, points the run at the shared on-disk
    warmed-state cache (:mod:`repro.runner.state_cache`); auto-fidelity
    runs then reuse each other's replay streams across schemes,
    processes and sweeps.
    """
    from .faults import FaultPlan  # worker import kept lazy & cycle-free

    context = process_context()
    plan = FaultPlan.parse(fault_spec) if fault_spec else FaultPlan.from_env()
    state_cache = _state_cache_for(state_dir)
    config = RunConfig.from_dict(payload)
    started = time.perf_counter()
    try:
        if plan is not None:
            plan.apply(
                config.benchmark_name, config.scheme_name,
                config.config_hash(), attempt,
            )
        result = context.execute(config, state_cache=state_cache)
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
