"""Parallel experiment runner with an on-disk result cache.

This package turns the per-figure ad-hoc sweeps of
:mod:`repro.analysis.experiments` into a subsystem: a declarative run
grid, a process-pool executor, a content-addressed cache, and a
deterministic shard partitioner, shared by the Python API
(:class:`~repro.analysis.experiments.ExperimentRunner`), the ``repro
sweep`` / ``repro merge`` / ``repro cache`` CLI subcommands, and the
benchmark harness.

Quick start
-----------
::

    from repro.runner import RunConfig, SweepGrid, SweepRunner, sweep_report

    runner = SweepRunner(workers=4, cache_dir="~/.cache/repro")
    result = runner.run_one(RunConfig("MT", "PAE", scale=0.5))

    grid = SweepGrid(benchmarks=("MT", "SP"), schemes=("PAE",), scale=0.5)
    report = sweep_report(grid, runner)      # JSON-safe dict

or from the shell::

    repro sweep --benchmarks MT,SP --schemes BASE,PAE --scale 0.5 \
        --workers 4 -o report.json

and distributed over N machines sharing a cache directory::

    repro sweep --shard 1/4 --cache-dir /shared/cache -o shard1.json
    ...
    repro sweep --shard 4/4 --cache-dir /shared/cache -o shard4.json
    repro merge shard1.json shard2.json shard3.json shard4.json -o report.json

Cache layout
------------
``cache_dir`` holds one JSON record per completed run::

    <cache_dir>/<hh>/<sha256-of-config>.json
    <cache_dir>/<hh>/<sha256-of-config>.meta.json   # runtime sidecar
    <cache_dir>/<hh>/<sha256-of-config>.claim       # transient claim

where ``hh`` is the first two hex characters of the key (a fan-out
directory so no single directory grows huge).  The key is a SHA-256
over the canonical JSON of the full :class:`~repro.runner.config.RunConfig`
— workload spec, scheme spec, BIM seed, SM count, memory technology,
trace scale, entropy window, RMP profile scale — plus a schema version.
Registered names hash as bare strings; custom specs
(:mod:`repro.specs`) hash their canonical JSON content (a trace
workload hashes its file's SHA-256, not its path), so user-defined
scenarios are content-addressed exactly like built-ins
(:data:`~repro.runner.config.CACHE_SCHEMA_VERSION`) that is bumped
whenever a simulator change alters what a config computes.  Changing
*any* config field therefore changes the key (a fresh run), and stale
records from older code are never served.  Records are written
atomically (temp file + rename); unreadable or truncated records are
deleted and recomputed, never trusted.  The cache may be shared
between concurrent processes.

The ``.meta.json`` sidecar records wall seconds, engine event count
and the schema version of each run; it feeds ``repro cache ls /
prune``, and is never required for correctness.  ``.claim`` markers
implement the optional work-claim protocol (see
:mod:`repro.runner.cache`).

Worker configuration
--------------------
``SweepRunner(workers=N)`` executes cache misses on a
``ProcessPoolExecutor`` with ``N`` workers; ``workers=1`` (the
default) runs inline in the calling process with no pool overhead.
``repro sweep --workers 0`` picks :func:`~repro.runner.sweep.default_workers`
— the ``REPRO_WORKERS`` environment variable when set, else one worker
per CPU.  Each worker process keeps a
:class:`~repro.runner.worker.RunContext` that memoizes workloads,
schemes and the RMP suite entropy profile across the tasks it serves,
so per-task setup cost amortizes away on large grids.  Misses are
submitted in input order, one future per config (see
:mod:`repro.runner.sweep`).

Failure semantics
-----------------
A :class:`~repro.runner.faults.FailurePolicy` governs how a sweep
reacts to failing runs: worker exceptions are retried with exponential
backoff and deterministic jitter up to ``max_retries`` times, hung
runs are bounded by a parent-enforced per-run ``timeout``, a dead
worker (``BrokenProcessPool``) triggers an automatic pool rebuild and
a one-at-a-time *probe* of the configs it took down, and cache I/O
errors degrade to unpersisted execution with a warning.  A config that
keeps failing is **quarantined** as a structured
:class:`~repro.runner.faults.RunFailure`; ``run_outcomes`` returns
them alongside the healthy results, strict ``run_many`` raises
:class:`~repro.runner.faults.SweepFailure` after everything healthy
completed, and the CLI reports partial success via the report's
``"failures"`` section and exit code 3.  Every recovery path is
deterministically testable through
:class:`~repro.runner.faults.FaultPlan` (``REPRO_FAULT_INJECT``).

Determinism guarantees
----------------------
* Every run is a pure function of its config: workload synthesis and
  BIM draws are seeded, and the simulator itself has no randomness.
* ``run_many`` returns results in **input order**, not completion
  order, and grids expand in a fixed documented order (benchmarks
  outermost, then schemes / seeds / SM counts / memories).
  Worker completion order and claim stealing only reorder
  *execution*, never output.
* Shard partitions (:class:`~repro.runner.shard.ShardSpec`) are
  pairwise disjoint, cover the grid, and are stable across
  re-invocations; ``repro merge`` rebuilds the full report through the
  same code path as a single-machine sweep, so the bytes match.
* Sweep reports contain no environmental data (timestamps, hosts,
  worker counts, cache hit rates) and are rendered with sorted keys —
  so the same grid yields byte-identical JSON for 1 worker or N,
  cold or warm, sharded or whole.
"""

from .cache import CacheEntry, CacheStats, ResultCache
from .config import CACHE_SCHEMA_VERSION, RunConfig, SweepGrid
from .faults import (
    FAULT_ENV_VAR,
    FailurePolicy,
    FaultPlan,
    FaultSpecError,
    InjectedFault,
    RunFailure,
    SweepFailure,
)
from .report import (
    MergeError,
    REPORT_FORMAT,
    SHARD_FORMAT,
    merge_shard_reports,
    render_report,
    report_from_cache,
    report_from_results,
    shard_report,
    sweep_report,
)
from .shard import ShardSpec, shard_owner
from .sweep import (
    SweepOutcome,
    SweepProgress,
    SweepRunner,
    SweepStats,
    coerce_workers,
    default_workers,
)
from .worker import RunContext, execute_config, process_context

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CacheEntry",
    "CacheStats",
    "FAULT_ENV_VAR",
    "FailurePolicy",
    "FaultPlan",
    "FaultSpecError",
    "InjectedFault",
    "MergeError",
    "REPORT_FORMAT",
    "ResultCache",
    "RunConfig",
    "RunContext",
    "RunFailure",
    "SHARD_FORMAT",
    "ShardSpec",
    "SweepFailure",
    "SweepGrid",
    "SweepOutcome",
    "SweepProgress",
    "SweepRunner",
    "SweepStats",
    "coerce_workers",
    "default_workers",
    "execute_config",
    "merge_shard_reports",
    "process_context",
    "render_report",
    "report_from_cache",
    "report_from_results",
    "shard_owner",
    "shard_report",
    "sweep_report",
]
