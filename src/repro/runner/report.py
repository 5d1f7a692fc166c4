"""Machine-readable sweep reports, sharded and whole.

:func:`sweep_report` runs a :class:`SweepGrid` through a
:class:`SweepRunner` and shapes the outcome into one JSON-safe dict —
the payload of the ``repro sweep`` CLI subcommand and the input of the
golden-regression tests.

Determinism contract: the report contains *only* values derived from
the grid and the simulations — no timestamps, host names, worker
counts or cache statistics — and :func:`render_report` encodes it with
sorted keys.  Two invocations over the same grid therefore produce
byte-identical text no matter how many workers ran the sweep or
whether results came from the cache.

Partial success: when a sweep runs non-strict (``repro sweep``'s
default), quarantined configs appear in a ``"failures"`` section — one
record per config with its key, kind, error text and wall seconds —
and are *omitted* from ``runs`` and from any derived table needing
them (a variant whose run or BASE baseline failed is skipped; its
healthy siblings still normalize).  A clean report has no
``"failures"`` key at all, so fault-free output stays byte-identical
to pre-fault-tolerance reports.  ``wall_seconds`` inside a failure
record is the one nondeterministic field in the format, and it only
exists when something already went wrong.

Sharded sweeps
--------------
``repro sweep --shard I/N`` produces a **partial** report
(:data:`SHARD_FORMAT`) holding only the runs the shard owns, plus the
grid and shard spec it was cut from.  :func:`merge_shard_reports`
validates a complete, consistent set of N partials and rebuilds the
full report through the *same* :func:`report_from_results` code path a
single-machine sweep uses — so the merged report is byte-identical to
an unsharded run by construction.  :func:`report_from_cache` does the
same directly from a shared cache directory, skipping the partial
files entirely.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from ..sim.results import SimulationResult, perf_per_watt_ratio, speedup
from .cache import ResultCache
from .config import CACHE_SCHEMA_VERSION, RunConfig, SweepGrid
from .faults import RunFailure
from .shard import ShardSpec
from .sweep import SweepRunner

__all__ = [
    "sweep_report",
    "shard_report",
    "merge_shard_reports",
    "report_from_results",
    "report_from_cache",
    "render_report",
    "MergeError",
    "REPORT_FORMAT",
    "SHARD_FORMAT",
]

REPORT_FORMAT = "repro-sweep-report/1"
SHARD_FORMAT = "repro-sweep-shard/1"


class MergeError(ValueError):
    """Raised when shard reports cannot be combined into a full report."""


def _parsed(what: str, parse):
    """``parse()``, or a :class:`MergeError` saying *what* does not parse."""
    try:
        return parse()
    except (AttributeError, KeyError, TypeError, ValueError) as error:
        why = f"missing field {error}" if type(error) is KeyError else error
        raise MergeError(f"{what} does not parse: {why}") from None


def _metric_tables(
    configs: List[RunConfig],
    results: List[Optional[SimulationResult]],
    grid: SweepGrid,
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Per-variant speedup / perf-per-watt tables, normalized to BASE.

    Keyed ``metric -> variant -> benchmark -> value`` where a variant
    is ``scheme`` for the plain single-seed/single-config grid and
    ``scheme@seed=s,n_sms=n,memory=m`` when those axes are swept.

    A config whose own result — or whose BASE baseline — is missing
    (quarantined in a partial-success sweep) is skipped; every pair
    that *is* present normalizes exactly as in a clean sweep.
    """
    by_key = {
        c.config_hash(): r for c, r in zip(configs, results) if r is not None
    }
    multi = (
        len(grid.seeds) > 1 or len(grid.n_sms) > 1 or len(grid.memories) > 1
    )
    speedups: Dict[str, Dict[str, float]] = {}
    perf_per_watt: Dict[str, Dict[str, float]] = {}
    for config in configs:
        base = by_key.get(config.baseline().config_hash())
        result = by_key.get(config.config_hash())
        if base is None or result is None:
            continue
        if multi:
            variant = (
                f"{config.scheme_name}@seed={config.seed},n_sms={config.n_sms},"
                f"memory={config.memory}"
            )
        else:
            variant = config.scheme_name
        benchmark = config.benchmark_name
        speedups.setdefault(variant, {})[benchmark] = speedup(result, base)
        perf_per_watt.setdefault(variant, {})[benchmark] = (
            perf_per_watt_ratio(result, base)
        )
    return {"speedup": speedups, "perf_per_watt": perf_per_watt}


def _harmonic_means(table: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    means = {}
    for variant, per_bench in table.items():
        values = list(per_bench.values())
        means[variant] = len(values) / sum(1.0 / v for v in values)
    return means


def report_from_results(
    grid: SweepGrid,
    configs: List[RunConfig],
    results: List[Optional[SimulationResult]],
    failures: Optional[Sequence[RunFailure]] = None,
) -> Dict[str, object]:
    """Shape a full grid's results into the report dict.

    The single report-building code path: a one-machine sweep, a shard
    merge and a cache replay all end here, which is what makes their
    outputs byte-identical.  *failures* (quarantined configs from a
    partial-success sweep) become the ``"failures"`` section — present
    only when non-empty, sorted by config key, one record per distinct
    config — and their ``None`` result slots are dropped from ``runs``.
    """
    tables = _metric_tables(configs, results, grid)
    report = {
        "format": REPORT_FORMAT,
        "grid": grid.to_dict(),
        "runs": [
            {"config": c.to_dict(), "result": r.to_dict()}
            for c, r in zip(configs, results)
            if r is not None
        ],
        "derived": {
            "speedup": tables["speedup"],
            "perf_per_watt": tables["perf_per_watt"],
            "hmean_speedup": _harmonic_means(tables["speedup"]),
            "hmean_perf_per_watt": _harmonic_means(tables["perf_per_watt"]),
        },
    }
    if failures:
        deduped = {f.key: f for f in failures}
        report["failures"] = [
            deduped[key].to_dict() for key in sorted(deduped)
        ]
    return report


def sweep_report(
    grid: SweepGrid, runner: SweepRunner, strict: bool = True
) -> Dict[str, object]:
    """Run *grid* on *runner* and build the report dict.

    Strict (the default, and the library/golden-test behaviour) raises
    :class:`~repro.runner.faults.SweepFailure` if any config was
    quarantined; ``strict=False`` (the CLI) reports partial success
    via the ``"failures"`` section instead.
    """
    configs = grid.configs()
    if strict:
        return report_from_results(grid, configs, runner.run_many(configs))
    outcome = runner.run_outcomes(configs)
    return report_from_results(
        grid, configs, outcome.results, failures=outcome.failures
    )


def shard_report(
    grid: SweepGrid, shard: ShardSpec, runner: SweepRunner, strict: bool = True
) -> Dict[str, object]:
    """Run this shard's slice of *grid* and build a partial report.

    Partial reports omit the derived tables: a shard generally lacks
    the BASE baselines of configs it does not own, so normalization
    happens at merge time over the complete run set.  With
    ``strict=False`` quarantined configs become a ``"failures"``
    section (only when non-empty) that :func:`merge_shard_reports`
    carries into the merged report.
    """
    configs = shard.select(grid.configs())
    if strict:
        results: List[Optional[SimulationResult]] = list(
            runner.run_many(configs)
        )
        failures: List[RunFailure] = []
    else:
        outcome = runner.run_outcomes(configs)
        results = outcome.results
        failures = outcome.failures
    report = {
        "format": SHARD_FORMAT,
        "schema": CACHE_SCHEMA_VERSION,
        "grid": grid.to_dict(),
        "shard": shard.to_dict(),
        "runs": [
            {"config": c.to_dict(), "result": r.to_dict()}
            for c, r in zip(configs, results)
            if r is not None
        ],
    }
    if failures:
        deduped = {f.key: f for f in failures}
        report["failures"] = [deduped[key].to_dict() for key in sorted(deduped)]
    return report


def merge_shard_reports(shards: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Combine a complete set of shard reports into the full report.

    Validates that every partial uses the shard format, that all agree
    on the grid and on the cache schema, which must be the current
    :data:`~repro.runner.config.CACHE_SCHEMA_VERSION` (an older
    simulator's results are stale), and that the shard indexes are
    exactly ``1..N`` — then rebuilds the report from the union of runs.
    Raises :class:`MergeError` on any inconsistency or gap, and on a
    malformed report, naming the shard (its position in *shards*) and
    the field that is missing or does not parse.  A config
    missing a result is a gap *unless* some shard quarantined it (its
    ``"failures"`` record is then carried into the merged report) —
    a partially-successful fleet still merges; a half-run one errors.
    """
    if not shards:
        raise MergeError("no shard reports to merge")
    specs = []
    for number, report in enumerate(shards, 1):
        if not isinstance(report, dict):
            raise MergeError(f"shard report {number} is not a JSON object")
        if report.get("format") != SHARD_FORMAT:
            raise MergeError(
                f"not a shard report: format={report.get('format')!r} "
                f"(expected {SHARD_FORMAT!r})"
            )
        for field in ("grid", "schema", "shard", "runs"):
            if field not in report:
                raise MergeError(f"shard report {number} has no {field!r} field")
        specs.append(_parsed(f"shard report {number}'s 'shard' field",
                             lambda: ShardSpec.from_dict(report["shard"])))
    grid_dicts = [report["grid"] for report in shards]
    if any(g != grid_dicts[0] for g in grid_dicts[1:]):
        raise MergeError("shard reports were cut from different grids")
    schemas = {json.dumps(report["schema"]) for report in shards}
    if len(schemas) != 1:
        raise MergeError(
            f"shard reports disagree on cache schema: {sorted(schemas)}"
        )
    (schema,) = schemas
    if schema != json.dumps(CACHE_SCHEMA_VERSION):
        # The shards agree, so the first one speaks for all of them.
        raise MergeError(
            f"shard report 1 has cache schema {schema}, not the current "
            f"{CACHE_SCHEMA_VERSION}: its results are stale; re-run the shards"
        )
    counts = {spec.count for spec in specs}
    if len(counts) != 1:
        raise MergeError(f"shard reports disagree on shard count: {sorted(counts)}")
    count = counts.pop()
    indexes = sorted(spec.index for spec in specs)
    if indexes != list(range(1, count + 1)):
        missing = sorted(set(range(1, count + 1)) - set(indexes))
        if missing:
            raise MergeError(f"missing shard(s) {missing} of {count}")
        raise MergeError(f"duplicate shard indexes in {indexes}")

    by_key: Dict[str, SimulationResult] = {}
    failures_by_key: Dict[str, RunFailure] = {}
    for number, report in enumerate(shards, 1):
        where = f"shard report {number}"
        runs, failures = report["runs"], report.get("failures", [])
        if not isinstance(runs, list) or not isinstance(failures, list):
            raise MergeError(f"{where}'s 'runs' and 'failures' must be lists")
        for index, run in enumerate(runs, 1):
            config, result = _parsed(f"{where}'s run {index}", lambda: (
                RunConfig.from_dict(run["config"]),
                SimulationResult.from_dict(run["result"]),
            ))
            by_key[config.config_hash()] = result
        for index, record in enumerate(failures, 1):
            failure = _parsed(f"{where}'s failure {index}",
                              lambda: RunFailure.from_dict(record))
            failures_by_key[failure.key] = failure

    grid = SweepGrid.from_dict(grid_dicts[0])
    configs = grid.configs()
    # A key with both a result (e.g. one shard's worker was killed for
    # memory and another shard ran the config) and a failure record
    # resolves to the result.
    for key in by_key:
        failures_by_key.pop(key, None)
    missing_configs = [
        c for c in configs
        if c.config_hash() not in by_key
        and c.config_hash() not in failures_by_key
    ]
    if missing_configs:
        names = ", ".join(
            f"{c.benchmark_name}/{c.scheme_name}" for c in missing_configs[:8]
        )
        raise MergeError(
            f"{len(missing_configs)} grid config(s) missing from the shard "
            f"reports (first: {names}) — was every shard run to completion?"
        )
    results = [by_key.get(c.config_hash()) for c in configs]
    return report_from_results(
        grid, configs, results, failures=list(failures_by_key.values())
    )


def report_from_cache(grid: SweepGrid, cache: ResultCache) -> Dict[str, object]:
    """Build the full report for *grid* straight from a result cache.

    This is the file-less merge path: after N shards have swept into
    one shared cache directory, the cache alone holds every run.
    Raises :class:`MergeError` when any grid config is absent.
    """
    configs = grid.configs()
    results = []
    missing = []
    for config in configs:
        result = cache.peek(config)
        if result is None:
            missing.append(config)
        else:
            results.append(result)
    if missing:
        names = ", ".join(f"{c.benchmark_name}/{c.scheme_name}" for c in missing[:8])
        raise MergeError(
            f"{len(missing)} grid config(s) not in cache {cache.root} "
            f"(first: {names}) — did every shard sweep finish?"
        )
    return report_from_results(grid, configs, results)


def render_report(report: Dict[str, object]) -> str:
    """Deterministic JSON text of a report (sorted keys, trailing newline)."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
