"""Stable public facade: ``repro.api``.

Every front-end — the CLI (:mod:`repro.cli`), the experiment harness
(:class:`repro.analysis.experiments.ExperimentRunner`) and the bench
suite — routes through these four entry points, so scripting a custom
scenario uses exactly the code paths the paper figures use:

* :func:`simulate` — one run (cache-aware, memoized),
* :func:`sweep` — a grid, a grid document or axis keywords to a
  deterministic JSON-safe report (optionally one shard of it),
* :func:`entropy_profile` — the window-based entropy profile of a
  workload, optionally through a mapping scheme (paper Figs. 5/10),
* :func:`compare` — schemes side by side on one workload, with the
  paper's headline metrics normalized to BASE.

All workload / scheme arguments accept a registered name (``"MT"``,
``"PAE"``, or anything added via :mod:`repro.registry`), a spec dict,
or a :class:`~repro.specs.WorkloadSpec` / `SchemeSpec` object::

    import repro.api as api

    custom = SchemeSpec.stages("MYX", [
        {"op": "xor", "target": 8, "sources": [15, 16]},
    ])
    report = api.sweep(benchmarks=["SP"], schemes=["PAE", custom], scale=0.25)

Pass ``runner=`` to share one :class:`~repro.runner.sweep.SweepRunner`
(and its memo/cache/pool) across calls; otherwise each call builds a
throwaway runner from ``workers`` / ``cache_dir``.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

from .core.entropy import (
    EntropyProfile,
    application_entropy_profile,
    translate_kernel_inputs,
)
from .runner.config import RunConfig, SweepGrid, unique_names
from .runner.report import render_report, shard_report, sweep_report
from .runner.shard import ShardSpec
from .runner.sweep import SweepRunner, default_workers
from .runner.worker import RunContext, process_context
from .sim.fidelity import EXACT
from .sim.results import SimulationResult, perf_per_watt_ratio, speedup
from .specs import SchemeSpec, WorkloadSpec

__all__ = [
    "simulate",
    "sweep",
    "scenario_grid",
    "entropy_profile",
    "compare",
    "run_matrix",
    "render_report",
]

SchemeLike = Union[str, dict, SchemeSpec]
WorkloadLike = Union[str, dict, WorkloadSpec]


def _runner(
    runner: Optional[SweepRunner],
    workers: Optional[int],
    cache_dir,
    timeout: Optional[float] = None,
) -> Tuple[SweepRunner, bool]:
    """The runner to use, plus whether this call owns (and must close) it.

    A facade-created runner is closed before returning so a throwaway
    ``workers=N`` call never leaks its process pool; callers who pass
    ``runner=`` keep its pool alive across calls and close it themselves
    (their runner's own timeout applies — *timeout* is for
    facade-created runners only).  With *workers* unset, the
    ``REPRO_WORKERS`` environment variable decides (so CI and launchers
    can fan api calls out without code changes); without it, calls run
    serial in-process.
    """
    if runner is not None:
        return runner, False
    if workers is None and os.environ.get("REPRO_WORKERS", "").strip():
        workers = default_workers()
    return SweepRunner(workers=workers, cache_dir=cache_dir, timeout=timeout), True


def _config(
    benchmark: WorkloadLike,
    scheme: SchemeLike,
    *,
    seed: int,
    n_sms: int,
    memory: str,
    scale: float,
    window: int,
    profile_scale: Optional[float],
    fidelity: str = EXACT,
) -> RunConfig:
    return RunConfig(
        benchmark=WorkloadSpec.from_value(benchmark),
        scheme=SchemeSpec.from_value(scheme),
        seed=seed,
        n_sms=n_sms,
        memory=memory,
        scale=scale,
        window=window,
        profile_scale=profile_scale,
        fidelity=fidelity,
    )


def simulate(
    benchmark: WorkloadLike,
    scheme: SchemeLike = "BASE",
    *,
    seed: int = 0,
    n_sms: int = 12,
    memory: str = "gddr5",
    scale: float = 1.0,
    window: int = 12,
    profile_scale: Optional[float] = None,
    fidelity: str = EXACT,
    runner: Optional[SweepRunner] = None,
    workers: Optional[int] = None,
    cache_dir=None,
) -> SimulationResult:
    """Run one (workload, scheme) scenario and return its result.

    *fidelity* selects the simulation mode: ``"exact"`` (the default,
    byte-identical to the pre-fidelity simulator) or ``"auto"`` for the
    per-kernel planned mode (repeated kernels are replayed functionally
    and estimated from measured exemplars; the plan is shared across
    all schemes of a sweep so figure-12 ratios stay accurate).  Auto
    has no parameters to set.  See :mod:`repro.sim.fidelity`.
    """
    config = _config(
        benchmark, scheme, seed=seed, n_sms=n_sms, memory=memory,
        scale=scale, window=window, profile_scale=profile_scale,
        fidelity=fidelity,
    )
    executor, owned = _runner(runner, workers, cache_dir)
    try:
        return executor.run_one(config)
    finally:
        if owned:
            executor.close()


def run_matrix(
    benchmarks: Iterable[WorkloadLike],
    schemes: Iterable[SchemeLike],
    *,
    seed: int = 0,
    n_sms: int = 12,
    memory: str = "gddr5",
    scale: float = 1.0,
    window: int = 12,
    profile_scale: Optional[float] = None,
    fidelity: str = EXACT,
    runner: Optional[SweepRunner] = None,
    workers: Optional[int] = None,
    cache_dir=None,
) -> Dict[Tuple[str, str], SimulationResult]:
    """Run a benchmark x scheme matrix; results keyed by display names.

    The whole matrix is handed to the sweep runner as one batch, so
    with ``workers > 1`` the misses simulate in parallel.
    """
    bench_specs = [WorkloadSpec.from_value(b) for b in benchmarks]
    scheme_specs = [SchemeSpec.from_value(s) for s in schemes]
    # Results are keyed by display name; distinct specs sharing one
    # would silently overwrite each other (same hazard SweepGrid guards).
    unique_names(bench_specs, "benchmarks")
    unique_names(scheme_specs, "schemes")
    configs = [
        _config(
            b, s, seed=seed, n_sms=n_sms, memory=memory,
            scale=scale, window=window, profile_scale=profile_scale,
            fidelity=fidelity,
        )
        for b in bench_specs
        for s in scheme_specs
    ]
    executor, owned = _runner(runner, workers, cache_dir)
    try:
        results = executor.run_many(configs)
    finally:
        if owned:
            executor.close()
    keys = [(b.name, s.name) for b in bench_specs for s in scheme_specs]
    return dict(zip(keys, results))


def scenario_grid(scenario: Union[SweepGrid, dict]) -> SweepGrid:
    """A ready grid, or a grid document parsed by :meth:`SweepGrid.from_dict`.

    The coercion :func:`sweep` and the ``repro serve`` job intake
    share, so a grid document (``json.load`` of a ``--spec`` file, an
    HTTP request body) means the same thing everywhere.
    """
    if isinstance(scenario, SweepGrid):
        return scenario
    if isinstance(scenario, dict):
        return SweepGrid.from_dict(scenario)
    raise TypeError(
        f"scenario must be a SweepGrid or dict, got {type(scenario).__name__}"
    )


def sweep(
    scenario: Optional[Union[SweepGrid, dict]] = None,
    *,
    benchmarks: Optional[Sequence[WorkloadLike]] = None,
    schemes: Optional[Sequence[SchemeLike]] = None,
    seeds: Optional[Sequence[int]] = None,
    n_sms: Optional[Sequence[int]] = None,
    memories: Optional[Sequence[str]] = None,
    scale: Optional[float] = None,
    window: Optional[int] = None,
    fidelity: Optional[str] = None,
    shard: Optional[Union[str, ShardSpec]] = None,
    runner: Optional[SweepRunner] = None,
    workers: Optional[int] = None,
    cache_dir=None,
    strict: bool = True,
    timeout: Optional[float] = None,
) -> Dict[str, object]:
    """Run a sweep and return the deterministic report dict.

    *scenario* may be a :class:`~repro.runner.config.SweepGrid` or a
    grid document (e.g. ``json.load`` of a ``--spec`` file);
    alternatively describe the grid with the axis keywords, whose
    unset axes take :class:`SweepGrid`'s defaults.  Passing both
    raises ``TypeError``.  With *shard* (``"2/4"`` or a
    :class:`ShardSpec`) only that slice runs and a partial shard
    report is returned, mergeable by :func:`repro.runner.report.merge_shard_reports`.

    *strict* (default) raises :class:`~repro.runner.faults.SweepFailure`
    if any config is quarantined (on its first failure; a run is a
    pure function of its config, so none is retried) — after every
    healthy config completed; ``strict=False`` returns a partial report
    with a ``"failures"`` section instead (the CLI behaviour).
    *timeout* is the per-run wall-clock budget in seconds of the
    facade-created runner.
    """
    axes = {
        name: value for name, value in (
            ("benchmarks", benchmarks), ("schemes", schemes),
            ("seeds", seeds), ("n_sms", n_sms), ("memories", memories),
            ("scale", scale), ("window", window), ("fidelity", fidelity),
        ) if value is not None
    }
    if scenario is not None:
        if axes:
            raise TypeError(
                f"sweep() takes a scenario or axis keywords, not both "
                f"(got {', '.join(axes)})"
            )
        grid = scenario_grid(scenario)
    else:
        grid = SweepGrid(**axes)
    executor, owned = _runner(runner, workers, cache_dir, timeout)
    try:
        if shard is not None:
            spec = shard if isinstance(shard, ShardSpec) else ShardSpec.parse(shard)
            return shard_report(grid, spec, executor, strict=strict)
        return sweep_report(grid, executor, strict=strict)
    finally:
        if owned:
            executor.close()


def entropy_profile(
    benchmark: WorkloadLike,
    *,
    scheme: Optional[SchemeLike] = None,
    seed: int = 0,
    memory: str = "gddr5",
    scale: float = 1.0,
    window: int = 12,
    profile_scale: Optional[float] = None,
    scheme_window: Optional[int] = None,
    context: Optional[RunContext] = None,
) -> EntropyProfile:
    """Window-based entropy profile of a workload (paper Figs. 5/10).

    Without *scheme*, the BASE (unmapped) profile; with one, the
    profile of the *mapped* addresses — one batched GF(2) product over
    the whole trace.  *window* sizes the analysis; *scheme_window*
    (default: *window*) is the suite-profile window an entropy-derived
    scheme like RMP is *built* at — keep it pinned when comparing one
    scheme across several analysis windows, so every profile describes
    the same mapping.  Profiles are memoized on the (shared) process
    :class:`~repro.runner.worker.RunContext`.
    """
    context = context if context is not None else process_context()
    spec = WorkloadSpec.from_value(benchmark)
    if scheme is None:
        return context.entropy_profile(spec, memory, scale, window)
    scheme_spec = SchemeSpec.from_value(scheme)
    built = context.scheme(
        scheme_spec, seed, memory,
        profile_scale if profile_scale is not None else scale,
        scheme_window if scheme_window is not None else window,
    )
    workload = context.workload(spec, scale)
    kernels = translate_kernel_inputs(
        workload.entropy_kernel_inputs(), built.bim.matrix
    )
    return application_entropy_profile(
        kernels, context.address_map(memory), window,
        label=f"{spec.name}/{scheme_spec.name}",
    )


def compare(
    benchmark: WorkloadLike,
    schemes: Iterable[SchemeLike] = ("PM", "PAE"),
    *,
    seed: int = 0,
    n_sms: int = 12,
    memory: str = "gddr5",
    scale: float = 1.0,
    window: int = 12,
    profile_scale: Optional[float] = None,
    fidelity: str = EXACT,
    runner: Optional[SweepRunner] = None,
    workers: Optional[int] = None,
    cache_dir=None,
) -> Dict[str, Dict[str, float]]:
    """Schemes side by side on one workload, normalized to BASE.

    Returns ``{scheme_name: metrics}`` in input order (BASE first,
    inserted if absent) with the paper's headline metrics: cycles,
    speedup, row-buffer hit rate, channel MLP, DRAM watts, perf/W.
    """
    scheme_specs = [SchemeSpec.from_value(s) for s in schemes]
    base = SchemeSpec.registered("BASE")
    if any(s.name == "BASE" and s != base for s in scheme_specs):
        raise ValueError(
            "a custom scheme may not be named 'BASE': results are "
            "normalized against the registered BASE baseline by name"
        )
    if base not in scheme_specs:
        scheme_specs.insert(0, base)
    results = run_matrix(
        [benchmark], scheme_specs,
        seed=seed, n_sms=n_sms, memory=memory, scale=scale, window=window,
        profile_scale=profile_scale, fidelity=fidelity, runner=runner,
        workers=workers, cache_dir=cache_dir,
    )
    bench_name = WorkloadSpec.from_value(benchmark).name
    base = results[(bench_name, "BASE")]
    table: Dict[str, Dict[str, float]] = {}
    for spec in scheme_specs:
        result = results[(bench_name, spec.name)]
        table[spec.name] = {
            "cycles": result.cycles,
            "speedup": speedup(result, base),
            "row_hit_rate": result.row_hit_rate,
            "channel_parallelism": result.channel_parallelism,
            "dram_power_watts": result.dram_power.total,
            "perf_per_watt": perf_per_watt_ratio(result, base),
        }
    return table
