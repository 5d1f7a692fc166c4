"""Auto-fidelity accuracy and cost harness.

Runs the same benchmark x scheme grid twice — ``fidelity="exact"`` and
``fidelity="auto"`` — and records, into
``benchmarks/results/BENCH_sampled_accuracy.json`` (the ``sampled_*``
record fields hold the auto run):

* auto's cost as engine events: the grid's total under each mode
  (``exact_events``, ``auto_events``) and their ratio
  (``event_ratio``),
* the fig12-style speedup table (per scheme, per benchmark) and its
  harmonic means under both modes,
* the per-scheme HMEAN relative error and per-cell worst error,
* the targets (>= 2x fewer engine events, <= 3% HMEAN error) and
  whether this grid met them.

Environment knobs:

* ``REPRO_SAMPLED_BENCH_SCALE`` — trace scale (default 1.0),
* ``REPRO_SAMPLED_BENCH_FULL=1`` — sweep the whole valley suite x 6
  schemes instead of the smoke grid (the ``slow``-marked case runs
  this at ``scale=1.0``).

The smoke grid doubles as the CI budget: both targets are pure
functions of the traces, so both are asserted, and at scale 1.0 its
event counts and HMEAN errors are pinned, so any drift in auto's
results fails here.  Wall time is measured only by
``benchmarks/perf/bench.py``, which repeats runs and reports their
spread.

The results file keeps one record per grid (benchmarks, schemes,
scale, fidelity): a run replaces its grid's record.
"""

import json
import os
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

TARGET_EVENT_RATIO = 2.0
TARGET_HMEAN_ERROR_PCT = 3.0

# The smoke grid at scale 1.0: engine events exactly, HMEAN errors (in
# percent) to 1e-9.
PINNED_EXACT_EVENTS = 2049122
PINNED_AUTO_EVENTS = 948492
PINNED_HMEAN_ERROR_PCT = {"PAE": 2.958238775561184, "PM": -0.3095824057715024}


def _grid():
    if os.environ.get("REPRO_SAMPLED_BENCH_FULL", "").strip():
        return tuple(VALLEY_BENCHMARKS), tuple(SCHEME_NAMES)
    return SMOKE_BENCHMARKS, SMOKE_SCHEMES


def _hmean(values):
    values = list(values)
    return len(values) / sum(1.0 / v for v in values)


def _run_mode(benchmarks, schemes, scale, fidelity):
    """One full matrix at *fidelity*: its results dict."""
    runner = SweepRunner(workers=default_workers())
    try:
        return run_matrix(
            benchmarks, schemes, scale=scale, fidelity=fidelity, runner=runner
        )
    finally:
        runner.close()


def _events(results):
    """Engine events summed over a results dict: a deterministic count."""
    return sum(result.metadata["events"] for result in results.values())


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
    exact_results = _run_mode(benchmarks, schemes, scale, "exact")
    sampled_results = _run_mode(benchmarks, schemes, scale, fidelity)

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
    exact_events = _events(exact_results)
    auto_events = _events(sampled_results)
    event_ratio = exact_events / auto_events if auto_events else float("inf")

    return {
        "scale": scale,
        "fidelity": str(fidelity),
        "benchmarks": list(benchmarks),
        "schemes": list(schemes),
        "workers": default_workers(),
        "exact_events": exact_events,
        "auto_events": auto_events,
        "event_ratio": event_ratio,
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
            "event_ratio": TARGET_EVENT_RATIO,
            "max_abs_hmean_error_pct": TARGET_HMEAN_ERROR_PCT,
        },
        "meets_targets": bool(
            event_ratio >= TARGET_EVENT_RATIO
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

    def grid(entry):
        return tuple(
            entry.get(key) for key in ("benchmarks", "schemes", "scale", "fidelity")
        )

    records = [entry for entry in existing if grid(entry) != grid(record)]
    records.append(record)
    path.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")
    print(json.dumps(record, indent=2, sort_keys=True))


def test_sampled_accuracy_smoke():
    """Record auto vs exact accuracy and engine events; assert the
    error budget and the event ratio."""
    benchmarks, schemes = _grid()
    scale = float(os.environ.get("REPRO_SAMPLED_BENCH_SCALE", "1.0"))
    record = measure(scale, AUTO, benchmarks, schemes)
    _emit(record)
    assert record["auto_events"] > 0
    assert record["hmean_speedup_sampled"]
    # Both budgets are blocking: the figure-12 HMEAN error and the
    # engine-event counts are pure functions of the traces — fully
    # deterministic — so CI asserts them.
    assert record["max_abs_hmean_error_pct"] <= TARGET_HMEAN_ERROR_PCT, (
        f"approximate-fidelity HMEAN error "
        f"{record['max_abs_hmean_error_pct']:.2f}% exceeds the "
        f"{TARGET_HMEAN_ERROR_PCT}% budget"
    )
    assert record["event_ratio"] >= TARGET_EVENT_RATIO, (
        f"auto ran {record['auto_events']} engine events against exact's "
        f"{record['exact_events']}: a {record['event_ratio']:.2f}x ratio, "
        f"under the {TARGET_EVENT_RATIO}x target"
    )
    if (benchmarks, schemes, scale) == (SMOKE_BENCHMARKS, SMOKE_SCHEMES, 1.0):
        assert (record["exact_events"], record["auto_events"]) == (
            PINNED_EXACT_EVENTS, PINNED_AUTO_EVENTS
        )
        assert record["hmean_error_pct"] == pytest.approx(
            PINNED_HMEAN_ERROR_PCT, rel=0, abs=1e-9
        )


@pytest.mark.slow
def test_sampled_accuracy_full_valley_suite():
    """The acceptance measurement: full valley suite at scale=1.0."""
    record = measure(1.0, AUTO, tuple(VALLEY_BENCHMARKS), tuple(SCHEME_NAMES))
    _emit(record)
    assert record["auto_events"] > 0
