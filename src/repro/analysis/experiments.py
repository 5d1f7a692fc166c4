"""Experiment harness: run matrices of (workload x scheme x config).

Every figure of the paper's evaluation (11-20) is a view over the same
underlying sweep: the 16 benchmarks under the six mapping schemes on
the baseline configuration, plus sensitivity variants (SM count,
3D-stacked memory, alternative BIM seeds).  This module provides:

* :class:`ExperimentRunner` — the bench harness facade.  Simulation
  execution, parallelism and the on-disk result cache live in
  :mod:`repro.runner`; this class adds the entropy-profile helpers the
  figure scripts need and keeps a per-instance memo so independent
  bench files share one sweep,
* the canonical sweep helpers each bench/table is generated from.

All runs are deterministic: workloads and BIM draws are seeded, and
the simulator itself has no randomness.  Pass ``cache_dir`` to persist
results across processes, and ``workers`` to fan cache misses out
across a process pool (see :mod:`repro.runner` for the guarantees).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from .. import api
from ..core.address_map import AddressMap
from ..core.entropy import EntropyProfile
from ..core.schemes import SCHEME_NAMES, MappingScheme
from ..runner.sweep import SweepRunner
from ..runner.worker import RunContext
from ..sim.results import SimulationResult, perf_per_watt_ratio, speedup
from ..workloads.base import Workload
from ..workloads.suite import VALLEY_BENCHMARKS

__all__ = [
    "ExperimentRunner",
    "DEFAULT_SCALE",
    "SENSITIVITY_SCALE",
    "harmonic_mean",
    "arithmetic_mean",
]

DEFAULT_SCALE = 1.0
SENSITIVITY_SCALE = 0.5


def harmonic_mean(values: Sequence[float]) -> float:
    """Harmonic mean (the paper's speedup aggregation)."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("harmonic mean of no values")
    if (arr <= 0).any():
        raise ValueError("harmonic mean requires positive values")
    return float(arr.size / (1.0 / arr).sum())


def arithmetic_mean(values: Sequence[float]) -> float:
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("mean of no values")
    return float(arr.mean())


class ExperimentRunner:
    """Builds and memoizes simulation runs for the bench harness.

    One instance is typically shared per process (the benchmarks use a
    session-scoped fixture) so that e.g. Fig. 12 and Fig. 15 reuse the
    same simulations.  Internally it delegates execution to a
    :class:`~repro.runner.sweep.SweepRunner` — give it ``cache_dir``
    and/or ``workers`` to get disk caching and parallel sweeps.
    """

    def __init__(
        self,
        scale: float = DEFAULT_SCALE,
        window: int = 12,
        cache_dir=None,
        workers: Optional[int] = None,
    ) -> None:
        self.scale = scale
        self.window = window
        self._context = RunContext()
        self._sweeper = SweepRunner(
            workers=workers, cache_dir=cache_dir, context=self._context
        )

    # ------------------------------------------------------------------
    # Building blocks
    # ------------------------------------------------------------------
    def workload(self, benchmark: str, scale: Optional[float] = None) -> Workload:
        return self._context.workload(
            benchmark.upper(), scale if scale is not None else self.scale
        )

    def address_map(self, memory: str = "gddr5") -> AddressMap:
        return self._context.address_map(memory)

    def suite_average_entropy(self, memory: str = "gddr5") -> np.ndarray:
        """Per-bit average window entropy across the full suite.

        This is what the paper's RMP is built from: "we first gather
        the entropy of all our GPU-compute benchmarks and aggregate
        this into a global entropy profile" (Section IV-B).
        """
        return self._context.suite_average_entropy(memory, self.scale, self.window)

    def scheme(self, name: str, seed: int = 0, memory: str = "gddr5") -> MappingScheme:
        return self._context.scheme(name, seed, memory, self.scale, self.window)

    def entropy_profile(
        self, benchmark: str, window: Optional[int] = None, memory: str = "gddr5"
    ) -> EntropyProfile:
        """Window-based entropy profile of a benchmark (BASE addresses).

        Served from the run context's memo, which RMP construction
        shares — a bench session computes each profile once.
        """
        w = window if window is not None else self.window
        return self._context.entropy_profile(benchmark, memory, self.scale, w)

    def mapped_entropy_profile(
        self, benchmark: str, scheme_name: str, seed: int = 0,
        window: Optional[int] = None,
    ) -> EntropyProfile:
        """Entropy profile of the *mapped* addresses (paper Fig. 10)."""
        return api.entropy_profile(
            benchmark,
            scheme=scheme_name,
            seed=seed,
            scale=self.scale,
            window=window if window is not None else self.window,
            profile_scale=self.scale,
            # The scheme itself is always the one run()/sweep() simulate
            # (built at the runner's window), even when the *analysis*
            # window is overridden for this one profile.
            scheme_window=self.window,
            context=self._context,
        )

    # ------------------------------------------------------------------
    # Running (routed through the stable repro.api facade)
    # ------------------------------------------------------------------
    def run(
        self,
        benchmark: str,
        scheme_name: str,
        seed: int = 0,
        n_sms: int = 12,
        memory: str = "gddr5",
        scale: Optional[float] = None,
    ) -> SimulationResult:
        """Run (memoized) one simulation."""
        return api.simulate(
            benchmark, scheme_name,
            seed=seed, n_sms=n_sms, memory=memory,
            scale=scale if scale is not None else self.scale,
            window=self.window,
            # RMP's suite profile is always built at the runner's scale,
            # even when one run overrides the trace scale.
            profile_scale=self.scale,
            runner=self._sweeper,
        )

    def sweep(
        self,
        benchmarks: Iterable[str] = VALLEY_BENCHMARKS,
        schemes: Iterable[str] = SCHEME_NAMES,
        **kwargs,
    ) -> Dict[Tuple[str, str], SimulationResult]:
        """Run a benchmark x scheme matrix (memoized, batched).

        The whole matrix is handed to the sweep runner as one batch, so
        with ``workers > 1`` the misses simulate in parallel.
        """
        benchmarks = list(benchmarks)
        schemes = list(schemes)
        if kwargs.get("scale") is None:  # absent or explicit None
            kwargs["scale"] = self.scale
        return api.run_matrix(
            benchmarks, schemes,
            window=self.window, profile_scale=self.scale,
            runner=self._sweeper, **kwargs,
        )

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def speedups(
        self,
        benchmarks: Iterable[str] = VALLEY_BENCHMARKS,
        schemes: Iterable[str] = SCHEME_NAMES,
        **kwargs,
    ) -> Dict[Tuple[str, str], float]:
        """Speedup over BASE per (benchmark, scheme) — Fig. 12/20."""
        benchmarks = [b.upper() for b in benchmarks]
        schemes = [s.upper() for s in schemes]
        results = self.sweep(
            benchmarks, sorted(set(schemes + ["BASE"])), **kwargs
        )
        return {
            (b, s): speedup(results[(b, s)], results[(b, "BASE")])
            for b in benchmarks
            for s in schemes
        }

    def mean_speedup(
        self, scheme_name: str,
        benchmarks: Iterable[str] = VALLEY_BENCHMARKS,
        aggregate=harmonic_mean,
        **kwargs,
    ) -> float:
        ups = self.speedups(benchmarks, [scheme_name], **kwargs)
        return aggregate(list(ups.values()))

    def perf_per_watt(
        self,
        benchmarks: Iterable[str] = VALLEY_BENCHMARKS,
        schemes: Iterable[str] = SCHEME_NAMES,
        **kwargs,
    ) -> Dict[Tuple[str, str], float]:
        """Perf/Watt normalized to BASE — Fig. 17."""
        benchmarks = [b.upper() for b in benchmarks]
        schemes = [s.upper() for s in schemes]
        results = self.sweep(
            benchmarks, sorted(set(schemes + ["BASE"])), **kwargs
        )
        return {
            (b, s): perf_per_watt_ratio(results[(b, s)], results[(b, "BASE")])
            for b in benchmarks
            for s in schemes
        }

    def dram_power_ratio(
        self, scheme_name: str, benchmarks: Iterable[str] = VALLEY_BENCHMARKS, **kwargs
    ) -> float:
        """Mean DRAM power relative to BASE — Fig. 11's x axis."""
        ratios = []
        for b in benchmarks:
            base = self.run(b, "BASE", **kwargs)
            res = self.run(b, scheme_name, **kwargs)
            ratios.append(res.dram_power.total / base.dram_power.total)
        return arithmetic_mean(ratios)

    def cached_runs(self) -> int:
        """Distinct simulation results memoized in this process."""
        return self._sweeper.cached_runs()
