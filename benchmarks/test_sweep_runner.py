"""Acceptance checks for the sweep runner and its result cache.

* a **warm** (fully cached) sweep completes at least 10x faster than
  the **cold** sweep that populated the cache, with every run reported
  as a cache hit,
* the report JSON is byte-identical between 1 worker and N workers and
  between cold and warm runs.

Nothing here records timings: wall time is measured only by
``benchmarks/perf/bench.py``, with its spread.

The default grid keeps tier-1 fast; set ``REPRO_SWEEP_BENCH_SCALE``
and ``REPRO_SWEEP_BENCH_FULL=1`` to benchmark the full valley suite at
paper scale (the ``slow``-marked variant, run in CI's non-blocking
benchmark job).
"""

import os
import time

import pytest

from repro.core.schemes import SCHEME_NAMES
from repro.runner import SweepGrid, SweepRunner, render_report, sweep_report
from repro.workloads.suite import VALLEY_BENCHMARKS

SWEEP_SCALE = float(os.environ.get("REPRO_SWEEP_BENCH_SCALE", "0.25"))
SMALL_GRID = dict(
    benchmarks=("MT", "SP", "HS"), schemes=("PM", "PAE"), scale=SWEEP_SCALE
)


def _timed_sweep(grid: SweepGrid, **runner_kwargs):
    runner = SweepRunner(**runner_kwargs)
    started = time.perf_counter()
    report = sweep_report(grid, runner)
    return report, time.perf_counter() - started, runner


def test_sweep_cache_cold_vs_warm(benchmark, tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("sweep-cache")
    grid = SweepGrid(**SMALL_GRID)
    n_runs = len(grid.configs())

    cold_report, cold_seconds, cold_runner = benchmark.pedantic(
        _timed_sweep, args=(grid,), kwargs={"cache_dir": cache_dir},
        rounds=1, iterations=1,
    )
    assert cold_runner.stats.executed == n_runs

    warm_report, warm_seconds, warm_runner = _timed_sweep(
        grid, cache_dir=cache_dir
    )
    # Acceptance: all runs are cache hits and the warm sweep is >= 10x
    # faster than the cold one.
    assert warm_runner.stats.cache_hits == n_runs
    assert warm_runner.stats.executed == 0
    speedup = cold_seconds / max(warm_seconds, 1e-9)
    assert speedup >= 10.0, (
        f"warm sweep only {speedup:.1f}x faster "
        f"({cold_seconds:.2f}s cold vs {warm_seconds:.4f}s warm)"
    )

    # Acceptance: cold and warm reports are byte-identical.
    assert render_report(cold_report) == render_report(warm_report)


def test_sweep_worker_count_invariance():
    """Byte-identical JSON no matter how many workers ran the grid."""
    grid = SweepGrid(
        benchmarks=("SP", "HS"), schemes=("PAE",), scale=SWEEP_SCALE
    )
    serial_report, _, _ = _timed_sweep(grid, workers=1)
    parallel_report, _, _ = _timed_sweep(grid, workers=2)
    assert render_report(serial_report) == render_report(parallel_report)


@pytest.mark.slow
@pytest.mark.skipif(
    os.environ.get("REPRO_SWEEP_BENCH_FULL") != "1",
    reason="full-suite sweep benchmark; set REPRO_SWEEP_BENCH_FULL=1",
)
def test_full_suite_sweep_cold_warm(tmp_path_factory):
    """The full default grid (valley suite x all schemes) at paper scale."""
    cache_dir = tmp_path_factory.mktemp("sweep-cache-full")
    grid = SweepGrid(
        benchmarks=VALLEY_BENCHMARKS, schemes=SCHEME_NAMES, scale=1.0
    )
    n_runs = len(grid.configs())
    cold_report, cold_seconds, _ = _timed_sweep(grid, cache_dir=cache_dir)
    warm_report, warm_seconds, warm_runner = _timed_sweep(
        grid, cache_dir=cache_dir
    )
    assert warm_runner.stats.cache_hits == n_runs
    assert cold_seconds / max(warm_seconds, 1e-9) >= 10.0
    assert render_report(cold_report) == render_report(warm_report)
