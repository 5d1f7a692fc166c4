"""Approximate-fidelity accuracy and speedup harness.

Runs the same benchmark x scheme grid twice — ``fidelity="exact"`` and
``fidelity="auto"`` with its default parameters — and records, into
``benchmarks/results/BENCH_sampled_accuracy.json`` (the ``sampled_*``
record fields hold the auto run):

* wall-clock seconds for each mode and the approximate-mode speedup,
* the fig12-style speedup table (per scheme, per benchmark) and its
  harmonic means under both modes,
* the per-scheme HMEAN relative error and per-cell worst error,
* the PR targets (>= 2x wall, <= 3% HMEAN error) and whether this
  grid met them.

Environment knobs:

* ``REPRO_SAMPLED_BENCH_SCALE`` — trace scale (default 1.0),
* ``REPRO_SAMPLED_BENCH_FULL=1`` — sweep the whole valley suite x 6
  schemes instead of the smoke grid (the ``slow``-marked case runs
  this at ``scale=1.0``).

The smoke grid doubles as the CI error budget: the accuracy half of
the target (deterministic) is asserted, the wall half (noisy on shared
runners) is recorded in the artifact trail.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.api import run_matrix
from repro.core.schemes import SCHEME_NAMES
from repro.runner.sweep import SweepRunner, default_workers
from repro.sim.fidelity import AUTO
from repro.sim.results import speedup
from repro.workloads.suite import VALLEY_BENCHMARKS

RESULTS_DIR = Path(__file__).parent / "results"

SMOKE_BENCHMARKS = ("MT", "LU", "SC", "SRAD2")
SMOKE_SCHEMES = ("BASE", "PM", "PAE")

TARGET_SPEEDUP = 2.0
TARGET_HMEAN_ERROR_PCT = 3.0


def _grid():
    if os.environ.get("REPRO_SAMPLED_BENCH_FULL", "").strip():
        return tuple(VALLEY_BENCHMARKS), tuple(SCHEME_NAMES)
    return SMOKE_BENCHMARKS, SMOKE_SCHEMES


def _hmean(values):
    values = list(values)
    return len(values) / sum(1.0 / v for v in values)


def _run_mode(benchmarks, schemes, scale, fidelity):
    """One full matrix at *fidelity*: (wall_seconds, results dict)."""
    runner = SweepRunner(workers=default_workers())
    try:
        started = time.perf_counter()
        results = run_matrix(
            benchmarks, schemes, scale=scale, fidelity=fidelity, runner=runner
        )
        wall = time.perf_counter() - started
    finally:
        runner.close()
    return wall, results


def _speedup_tables(results, benchmarks, schemes):
    tables = {}
    for scheme in schemes:
        if scheme == "BASE":
            continue
        tables[scheme] = {
            bench: speedup(results[(bench, scheme)], results[(bench, "BASE")])
            for bench in benchmarks
        }
    return tables


def measure(scale, fidelity, benchmarks, schemes):
    exact_wall, exact_results = _run_mode(benchmarks, schemes, scale, "exact")
    sampled_wall, sampled_results = _run_mode(benchmarks, schemes, scale, fidelity)

    exact_tables = _speedup_tables(exact_results, benchmarks, schemes)
    sampled_tables = _speedup_tables(sampled_results, benchmarks, schemes)

    hmean_errors = {}
    cell_errors = {}
    for scheme, exact_row in exact_tables.items():
        hm_exact = _hmean(exact_row.values())
        hm_sampled = _hmean(sampled_tables[scheme].values())
        hmean_errors[scheme] = 100.0 * (hm_sampled / hm_exact - 1.0)
        cell_errors[scheme] = {
            bench: 100.0 * (sampled_tables[scheme][bench] / exact_row[bench] - 1.0)
            for bench in exact_row
        }
    max_hmean_error = max(abs(e) for e in hmean_errors.values())
    wall_speedup = exact_wall / sampled_wall if sampled_wall else float("inf")

    return {
        "scale": scale,
        "fidelity": str(fidelity),
        "benchmarks": list(benchmarks),
        "schemes": list(schemes),
        "workers": default_workers(),
        "exact_wall_seconds": exact_wall,
        "sampled_wall_seconds": sampled_wall,
        "wall_speedup": wall_speedup,
        "hmean_speedup_exact": {
            s: _hmean(row.values()) for s, row in exact_tables.items()
        },
        "hmean_speedup_sampled": {
            s: _hmean(row.values()) for s, row in sampled_tables.items()
        },
        "hmean_error_pct": hmean_errors,
        "max_abs_hmean_error_pct": max_hmean_error,
        "per_cell_error_pct": cell_errors,
        "targets": {
            "wall_speedup": TARGET_SPEEDUP,
            "max_abs_hmean_error_pct": TARGET_HMEAN_ERROR_PCT,
        },
        "meets_targets": bool(
            wall_speedup >= TARGET_SPEEDUP
            and max_hmean_error <= TARGET_HMEAN_ERROR_PCT
        ),
    }


def _emit(record, name="BENCH_sampled_accuracy.json"):
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / name
    existing = []
    if path.exists():
        try:
            existing = json.loads(path.read_text())
            if not isinstance(existing, list):
                existing = [existing]
        except json.JSONDecodeError:
            existing = []
    existing.append(record)
    path.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")
    print(json.dumps(record, indent=2, sort_keys=True))


def test_sampled_accuracy_smoke():
    """Record approximate vs exact accuracy and wall-clock; assert the
    error budget."""
    benchmarks, schemes = _grid()
    scale = float(os.environ.get("REPRO_SAMPLED_BENCH_SCALE", "1.0"))
    record = measure(scale, AUTO, benchmarks, schemes)
    _emit(record)
    assert record["sampled_wall_seconds"] > 0
    assert record["hmean_speedup_sampled"]
    # Error budget (blocking): the figure-12 HMEAN error is a pure
    # function of the traces and fidelity parameters — fully
    # deterministic — so CI asserts it.  The >= 2x wall target is
    # recorded in the artifact instead of asserted because wall clock
    # on shared runners is +-10-20% noisy.
    assert record["max_abs_hmean_error_pct"] <= TARGET_HMEAN_ERROR_PCT, (
        f"approximate-fidelity HMEAN error "
        f"{record['max_abs_hmean_error_pct']:.2f}% exceeds the "
        f"{TARGET_HMEAN_ERROR_PCT}% budget"
    )


@pytest.mark.slow
def test_sampled_accuracy_full_valley_suite():
    """The acceptance measurement: full valley suite at scale=1.0."""
    record = measure(1.0, AUTO, tuple(VALLEY_BENCHMARKS), tuple(SCHEME_NAMES))
    _emit(record)
    assert record["sampled_wall_seconds"] > 0
