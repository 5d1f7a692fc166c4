"""The warm runner pool and the job manager.

The load-bearing contracts of sweep-as-a-service:

* N parallel jobs over overlapping grids execute each unique config
  **exactly once** (counted by an execution hook on the run context),
* every job's report is **byte-identical** to a direct ``api.sweep``
  of the same grid,
* a quarantined config makes its job ``partial`` — never dead — and
  an internal error makes it ``failed`` without touching the manager.
"""

import json
import threading
import time

import pytest

import repro.api as api
from repro.runner import SweepGrid, SweepRunner, render_report
from repro.runner.worker import RunContext
from repro.serve.jobs import JobManager, RunnerPool
from repro.serve.protocol import TERMINAL_STATES
from repro.serve.tenants import TenantManager

SCALE = 0.25


class CountingContext(RunContext):
    """Counts execute() calls per config hash (thread-safe)."""

    def __init__(self):
        super().__init__()
        self.lock = threading.Lock()
        self.counts = {}

    def execute(self, config):
        with self.lock:
            key = config.config_hash()
            self.counts[key] = self.counts.get(key, 0) + 1
        return super().execute(config)


class GateContext(CountingContext):
    """Blocks every execute() until released; signals first entry."""

    def __init__(self):
        super().__init__()
        self.entered = threading.Event()
        self.gate = threading.Event()

    def execute(self, config):
        self.entered.set()
        assert self.gate.wait(timeout=60), "test never released the gate"
        return super().execute(config)


def make_manager(tmp_path, context, *, runners=2, max_jobs=4, faults=None):
    pool = RunnerPool(
        size=runners,
        faults=faults,
        runner_factory=lambda **kw: SweepRunner(context=context, **kw),
    )
    tenants = TenantManager(cache_root=str(tmp_path / "cache"))
    return JobManager(pool, tenants, max_jobs=max_jobs)


def wait_jobs(jobs, timeout=120):
    deadline = time.monotonic() + timeout
    for job in jobs:
        while job.state not in TERMINAL_STATES:
            assert time.monotonic() < deadline, f"{job.id} stuck in {job.state}"
            time.sleep(0.01)


# ----------------------------------------------------------------------
# Exactly-once + byte-identity
# ----------------------------------------------------------------------
def test_parallel_overlapping_jobs_execute_each_config_once(tmp_path):
    context = CountingContext()
    manager = make_manager(tmp_path, context)
    try:
        # Three grids sharing SP and the auto-inserted BASE baseline.
        grids = [
            SweepGrid(benchmarks=("SP",), schemes=("PM",), scale=SCALE),
            SweepGrid(benchmarks=("SP", "MT"), schemes=("PM",), scale=SCALE),
            SweepGrid(benchmarks=("SP",), schemes=("PM", "PAE"), scale=SCALE),
        ]
        jobs = [manager.submit(grid, "alice") for grid in grids]
        wait_jobs(jobs)
        assert [job.state for job in jobs] == ["done"] * 3

        unique = {c.config_hash() for grid in grids for c in grid.configs()}
        assert set(context.counts) == unique
        # The core claim: the runners' shared single-flight memo means
        # no config ever runs twice, however the jobs interleaved.
        assert all(count == 1 for count in context.counts.values()), (
            context.counts
        )

        for grid, job in zip(grids, jobs):
            assert job.report_text == render_report(api.sweep(grid))
    finally:
        manager.close()


def test_identical_concurrent_jobs_coalesce_deterministically(tmp_path):
    context = GateContext()
    manager = make_manager(tmp_path, context)
    try:
        grid = SweepGrid(benchmarks=("SP",), schemes=("PM",), scale=SCALE)
        first = manager.submit(grid, "alice")
        assert context.entered.wait(timeout=60)  # leader inside execute()

        second = manager.submit(grid, "alice")
        # Both configs must register as followers before we let the
        # leader finish — that is what makes this test deterministic.
        deadline = time.monotonic() + 60
        while manager.runners.stats().coalesced < 2:
            assert time.monotonic() < deadline
            time.sleep(0.01)

        context.gate.set()
        wait_jobs([first, second])
        assert first.state == "done" and second.state == "done"
        assert second.coalesced == 2
        assert all(count == 1 for count in context.counts.values())
        assert first.report_text == second.report_text
        assert manager.runners.memo.in_flight() == 0
    finally:
        context.gate.set()
        manager.close()


def test_runners_share_finished_results_across_tenants(tmp_path):
    """A job on the other runner reuses a finished config from the
    shared memo, though the tenants' disk namespaces differ."""
    context = CountingContext()
    manager = make_manager(tmp_path, context, runners=2)
    try:
        grid = SweepGrid(benchmarks=("SP",), schemes=("PM",), scale=SCALE)
        first = manager.submit(grid, "alice")
        wait_jobs([first])
        second = manager.submit(grid, "bob")
        wait_jobs([second])
        assert first.state == second.state == "done"
        unique = {c.config_hash() for c in grid.configs()}
        assert context.counts == {key: 1 for key in unique}
        # Leaders are the configs a runner resolved itself; bob's were
        # memo hits.
        assert manager.snapshot()["coalesce"] == {
            "leaders": 2, "coalesced": 0,
        }
    finally:
        manager.close()


# ----------------------------------------------------------------------
# Failure containment
# ----------------------------------------------------------------------
def test_poisoned_config_makes_job_partial_not_dead(tmp_path):
    context = CountingContext()
    manager = make_manager(tmp_path, context, faults="raise@SP/PM")
    try:
        grid = SweepGrid(benchmarks=("SP",), schemes=("PM",), scale=SCALE)
        job = manager.submit(grid, "alice")
        wait_jobs([job])
        assert job.state == "partial"
        assert len(job.failures) == 1
        assert job.failures[0].benchmark == "SP"
        assert job.failures[0].scheme == "PM"
        report = json.loads(job.report_text)
        assert report["failures"]  # quarantine visible in the report
        # BASE still produced a result.
        assert len([r for r in report["runs"]]) >= 1

        # The manager survived: a healthy job still completes.
        healthy = manager.submit(
            SweepGrid(benchmarks=("MT",), schemes=("PAE",), scale=SCALE),
            "alice",
        )
        wait_jobs([healthy])
        assert healthy.state == "done"
    finally:
        manager.close()


def test_internal_error_fails_the_job_only(tmp_path):
    class ExplodingGrid:
        def configs(self):
            raise RuntimeError("boom at expansion time")

    context = CountingContext()
    manager = make_manager(tmp_path, context)
    try:
        job = manager.submit(ExplodingGrid(), "alice")
        wait_jobs([job])
        assert job.state == "failed"
        assert "boom at expansion time" in job.error
        assert job.report_text is None
        # The manager survived the crash and still accounts for it.
        assert manager.snapshot()["jobs"] == {"failed": 1}
    finally:
        manager.close()


# ----------------------------------------------------------------------
# The warm pool
# ----------------------------------------------------------------------
def test_runner_pool_memo_survives_across_checkouts(tmp_path):
    context = CountingContext()
    pool = RunnerPool(
        size=1,
        runner_factory=lambda **kw: SweepRunner(context=context, **kw),
    )
    try:
        grid = SweepGrid(benchmarks=("SP",), schemes=("PM",), scale=SCALE)
        with pool.checkout() as runner:
            runner.run_many(grid.configs())
        with pool.checkout() as runner:
            runner.run_many(grid.configs())
        # Second checkout was served entirely from the warm memo.
        assert all(count == 1 for count in context.counts.values())
        assert pool.stats().memory_hits >= 2
    finally:
        pool.close()


def test_runner_pool_rebinds_cache_per_checkout(tmp_path):
    from repro.runner import ResultCache

    pool = RunnerPool(size=1)
    try:
        cache = ResultCache(tmp_path / "ns")
        with pool.checkout(cache=cache) as runner:
            assert runner.cache is cache
        with pool.checkout() as runner:  # uncached checkout
            assert runner.cache is None
    finally:
        pool.close()


def test_runner_pool_size_bounds_concurrent_checkouts():
    pool = RunnerPool(size=1)
    try:
        with pool.checkout():
            import queue as queue_module

            with pytest.raises(queue_module.Empty):
                pool._idle.get_nowait()
    finally:
        pool.close()
