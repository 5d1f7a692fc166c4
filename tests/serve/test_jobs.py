"""The job manager and its one warm runner.

The load-bearing contracts of sweep-as-a-service:

* N parallel jobs over overlapping grids execute each unique config
  **exactly once** (counted by an execution hook on the run context),
* every job's report is **byte-identical** to a direct ``api.sweep``
  of the same grid,
* a quarantined config makes its job ``partial`` — never dead — and
  an internal error makes it ``failed`` without touching the manager.
"""

import dataclasses
import json
import random
import sys
import threading
import time

import repro.api as api
from repro.runner import (
    ResultCache,
    RunConfig,
    SweepGrid,
    SweepRunner,
    render_report,
)
from repro.runner.worker import RunContext
from repro.serve.jobs import JobManager
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
    """Blocks every execute() until released; counts the calls that
    entered and signals the first."""

    def __init__(self):
        super().__init__()
        self.entries = 0
        self.entered = threading.Event()
        self.gate = threading.Event()

    def execute(self, config):
        with self.lock:
            self.entries += 1
        self.entered.set()
        assert self.gate.wait(timeout=60), "test never released the gate"
        return super().execute(config)


class StubContext(CountingContext):
    """Returns a copy of *template* per execute() call, tagged with the
    config's key; simulates nothing."""

    def __init__(self, template):
        super().__init__()
        self.template = template

    def execute(self, config):
        key = config.config_hash()
        with self.lock:
            self.counts[key] = self.counts.get(key, 0) + 1
        time.sleep(0.001)  # widen the window a racing job could use
        return dataclasses.replace(self.template, metadata={"key": key})


def make_manager(tmp_path, context, *, max_jobs=4, faults=None):
    tenants = TenantManager(cache_root=str(tmp_path / "cache"))
    return JobManager(
        SweepRunner(context=context, faults=faults), tenants,
        max_jobs=max_jobs,
    )


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
        # The core claim: the runner's memo means no config ever runs
        # twice, however the jobs interleaved.
        assert all(count == 1 for count in context.counts.values()), (
            context.counts
        )

        for grid, job in zip(grids, jobs):
            assert job.report_text == render_report(api.sweep(grid))
    finally:
        manager.close()


def test_identical_concurrent_jobs_coalesce_deterministically(tmp_path):
    """An identical job submitted while the first runs waits its turn
    on the runner, then finds every config in the memo."""
    context = GateContext()
    manager = make_manager(tmp_path, context)
    try:
        grid = SweepGrid(benchmarks=("SP",), schemes=("PM",), scale=SCALE)
        first = manager.submit(grid, "alice")
        assert context.entered.wait(timeout=60)  # first inside execute()

        second = manager.submit(grid, "alice")
        deadline = time.monotonic() + 60
        while second.state != "running":
            assert time.monotonic() < deadline
            time.sleep(0.01)
        # The second job holds a thread but not the runner: it has not
        # asked the runner for a config while the first job is gated.
        time.sleep(0.2)
        assert context.entries == 1
        assert manager.runner.stats.requested == len(grid.configs())

        context.gate.set()
        wait_jobs([first, second])
        assert first.state == "done" and second.state == "done"
        assert first.executed == 2 and second.executed == 0
        assert manager.runner.stats.memory_hits == 2
        assert all(count == 1 for count in context.counts.values())
        assert first.report_text == second.report_text
    finally:
        context.gate.set()
        manager.close()


def test_runners_share_finished_results_across_tenants(tmp_path):
    """A later job reuses a finished config from the runner's memo,
    though the tenants' disk namespaces differ."""
    context = CountingContext()
    manager = make_manager(tmp_path, context)
    try:
        grid = SweepGrid(benchmarks=("SP",), schemes=("PM",), scale=SCALE)
        first = manager.submit(grid, "alice")
        wait_jobs([first])
        second = manager.submit(grid, "bob")
        wait_jobs([second])
        assert first.state == second.state == "done"
        unique = {c.config_hash() for c in grid.configs()}
        assert context.counts == {key: 1 for key in unique}
        # Leaders are the configs the runner resolved without its
        # memo; bob's were memo hits.
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
# The warm runner
# ----------------------------------------------------------------------
def test_each_job_writes_to_its_tenants_namespace_only(tmp_path):
    context = CountingContext()
    manager = make_manager(tmp_path, context)
    try:
        root = tmp_path / "cache"
        grid = SweepGrid(benchmarks=("SP",), schemes=("PM",), scale=SCALE)
        job = manager.submit(grid, "alice")
        wait_jobs([job])
        assert job.state == "done"
        assert manager.runner.cache is None  # unbound between jobs
        records = sorted(root.rglob("*.json"))
        assert records and all(
            path.relative_to(root).parts[0] == "alice" for path in records
        )
        assert ResultCache(root / "alice").peek(grid.configs()[0]) is not None

        other = manager.submit(
            SweepGrid(benchmarks=("MT",), schemes=("PM",), scale=SCALE),
            "bob",
        )
        wait_jobs([other])
        assert other.state == "done" and manager.runner.cache is None
        assert {path.relative_to(root).parts[0]
                for path in root.rglob("*.json")} == {"alice", "bob"}
        assert sorted(root.joinpath("alice").rglob("*.json")) == records
    finally:
        manager.close()


def test_stress_many_jobs_take_turns_on_the_runner(tmp_path):
    """Sixteen overlapping jobs on eight threads share one runner; with
    a short switch interval, a job that used the runner beside another
    would lose a memo entry or a stats update."""
    template = SweepRunner().run_one(RunConfig("SP", "BASE", scale=SCALE))
    context = StubContext(template)
    manager = make_manager(tmp_path, context, max_jobs=8)
    rng = random.Random(0)
    grids = [
        SweepGrid(benchmarks=("SP",), schemes=("PM",),
                  seeds=tuple(rng.sample(range(12), 4)), scale=SCALE)
        for _ in range(16)
    ]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        jobs = [manager.submit(grid, "alice") for grid in grids]
        wait_jobs(jobs)
    finally:
        sys.setswitchinterval(switch)
        manager.close()
    assert [job.state for job in jobs] == ["done"] * len(jobs)
    unique = {c.config_hash() for grid in grids for c in grid.configs()}
    assert context.counts == {key: 1 for key in unique}
    assert sum(job.executed for job in jobs) == len(unique)
    stats = manager.runner.stats
    assert stats.requested == sum(len(grid.configs()) for grid in grids)
    assert stats.requested == (
        stats.memory_hits + stats.cache_hits + stats.executed
    )
