"""Jobs: the asynchronous sweep executions behind ``repro serve``.

Three pieces:

:class:`RunnerPool`
    The **warm worker pool**.  A fixed set of
    :class:`~repro.runner.sweep.SweepRunner` instances built once at
    server start and checked out per job execution, so their process
    pools (interpreter startup, ``REPRO_PLUGINS`` registration, the
    per-worker :class:`~repro.runner.worker.RunContext` memos) and
    their shared single-flight result memo survive across requests —
    the whole point of running a service instead of a batch CLI.  The
    runner's disk cache is rebound to the requesting tenant's
    namespace at checkout; the memo is deliberately *not* cleared
    (results are pure functions of config, so sharing them across
    tenants is exactly the coalescing win).

:class:`Job`
    One submitted scenario: its grid, lifecycle state
    (see :mod:`repro.serve.protocol`), progress counters, quarantined
    failures, and — once finished — the deterministic report, kept
    both as a dict and as the rendered text so ``GET .../report``
    serves bytes identical to ``repro sweep`` on the same grid.

:class:`JobManager`
    Bounded concurrent execution (a thread pool of ``max_jobs``
    workers; excess jobs wait in state ``queued``): each job is one
    checkout and one :meth:`~repro.runner.sweep.SweepRunner.run_outcomes`
    call, and the pool's shared memo makes overlapping jobs execute
    each unique config exactly once.  The
    :class:`~repro.serve.tenants.TenantManager` handles namespace
    selection, job-slot limits and post-job quota enforcement.

Deadlock freedom: a runner publishes every key it leads (in a
``finally``) before it waits on keys another runner leads, so the
leader of a waited-on key is executing or done, never waiting — there
is no cycle between runners.  With two or more runners a job keeps
its runner while it waits for a config another runner is computing,
so that runner sits idle meanwhile; in exchange, runners never
re-execute each other's finished configs.  With one runner (the
default) nothing ever waits.
"""

from __future__ import annotations

import queue
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..runner.config import SweepGrid
from ..runner.faults import FailurePolicy, RunFailure
from ..runner.report import render_report, report_from_results
from ..runner.sweep import RunMemo, SweepProgress, SweepRunner, SweepStats
from .protocol import (
    JOB_DONE,
    JOB_FAILED,
    JOB_PARTIAL,
    JOB_QUEUED,
    JOB_RUNNING,
    TERMINAL_STATES,
    new_job_id,
)
from .tenants import TenantManager

__all__ = ["Job", "JobManager", "RunnerPool", "TenantBusy"]


class TenantBusy(RuntimeError):
    """A tenant is at its concurrent-job quota (HTTP 429)."""


class RunnerPool:
    """A fixed pool of persistent, warm :class:`SweepRunner` instances.

    ``size`` runners each own up to ``workers`` worker processes;
    checkout blocks until one is free, so at most ``size * workers``
    simulations run at once regardless of how many jobs are in
    flight.  *faults* / *policy* apply to every runner (they come from
    the server's flags and ``REPRO_FAULT_INJECT``).  All runners share
    one single-flight :class:`~repro.runner.sweep.RunMemo`, so no two
    of them ever run the same config.
    """

    def __init__(
        self,
        size: int = 1,
        workers: Optional[int] = None,
        policy: Optional[FailurePolicy] = None,
        claims: bool = False,
        faults: Optional[str] = None,
        runner_factory=SweepRunner,
    ) -> None:
        if size < 1:
            raise ValueError(f"runner pool size must be >= 1, got {size}")
        self.size = size
        self._claims = bool(claims)
        self.memo = RunMemo()
        self._idle: "queue.Queue[SweepRunner]" = queue.Queue()
        self._runners: List[SweepRunner] = [
            runner_factory(workers=workers, policy=policy, faults=faults)
            for _ in range(size)
        ]
        for runner in self._runners:
            runner._memory = self.memo
            self._idle.put(runner)

    @contextmanager
    def checkout(self, cache=None, progress=None):
        """Borrow a warm runner, rebound to *cache* for this use.

        The runner's process pool and result memo persist across
        checkouts; only the disk-cache binding and the progress
        callback are per-use (the cache decides which tenant's
        namespace new records land in).
        """
        runner = self._idle.get()
        runner.cache = cache
        runner.claims = self._claims and cache is not None
        runner._progress = progress
        try:
            yield runner
        finally:
            runner.cache = None
            runner.claims = False
            runner._progress = None
            self._idle.put(runner)

    def stats(self) -> SweepStats:
        """Aggregate accounting across every runner in the pool."""
        total = SweepStats()
        for runner in self._runners:
            for name, count in runner.stats.as_dict().items():
                setattr(total, name, getattr(total, name) + count)
        return total

    def close(self) -> None:
        for runner in self._runners:
            runner.close()


@dataclass
class Job:
    """One submitted sweep and everything its endpoints report."""

    id: str
    tenant: str
    grid: SweepGrid
    state: str = JOB_QUEUED
    created: float = field(default_factory=time.time)
    started: Optional[float] = None
    finished: Optional[float] = None
    total: int = 0  # configs in the grid
    completed: int = 0  # configs resolved
    executed: int = 0  # simulations this job's runner actually ran
    coalesced: int = 0  # configs taken from another runner's run
    failures: List[RunFailure] = field(default_factory=list)
    error: Optional[str] = None
    report: Optional[Dict[str, object]] = None
    report_text: Optional[str] = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def status_dict(self) -> Dict[str, object]:
        """The ``GET /v1/sweeps/{id}`` payload."""
        data: Dict[str, object] = {
            "id": self.id,
            "tenant": self.tenant,
            "state": self.state,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "progress": {
                "total": self.total,
                "completed": self.completed,
                "executed": self.executed,
                "coalesced": self.coalesced,
            },
        }
        if self.failures:
            data["failures"] = [f.to_dict() for f in self.failures]
        if self.error is not None:
            data["error"] = self.error
        return data


class JobManager:
    """Owns the job table and drives executions through the warm pool."""

    def __init__(
        self,
        runners: RunnerPool,
        tenants: TenantManager,
        max_jobs: int = 8,
    ) -> None:
        if max_jobs < 1:
            raise ValueError(f"max_jobs must be >= 1, got {max_jobs}")
        self.runners = runners
        self.tenants = tenants
        self._executor = ThreadPoolExecutor(
            max_workers=max_jobs, thread_name_prefix="repro-job"
        )
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []  # submission order, oldest first
        self._sequence = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Submission and lookup
    # ------------------------------------------------------------------
    def submit(self, grid: SweepGrid, tenant: str) -> Job:
        """Accept *grid* as a new job for *tenant*; raises
        :class:`TenantBusy` at the tenant's concurrent-job quota.

        The grid must already be validated (``grid.configs()`` — the
        HTTP layer does this so spec errors are a 400, not a failed
        job).
        """
        if not self.tenants.try_acquire_job(tenant):
            raise TenantBusy(
                f"tenant {tenant!r} is at its concurrent-job limit "
                f"({self.tenants.quota.max_jobs})"
            )
        with self._lock:
            if self._closed:
                self.tenants.release_job(tenant)
                raise RuntimeError("server is shutting down")
            self._sequence += 1
            job = Job(id=new_job_id(self._sequence), tenant=tenant, grid=grid)
            self._jobs[job.id] = job
            self._order.append(job.id)
        self._executor.submit(self._run_job, job)
        return job

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        """Every known job, most recently submitted first."""
        with self._lock:
            return [self._jobs[i] for i in reversed(self._order)]

    def counts(self) -> Dict[str, int]:
        """Job tally by state (for ``/v1/healthz``)."""
        counts: Dict[str, int] = {}
        with self._lock:
            for job in self._jobs.values():
                counts[job.state] = counts.get(job.state, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _run_job(self, job: Job) -> None:
        job.started = time.time()
        job.state = JOB_RUNNING
        final_state = JOB_FAILED
        try:
            configs = job.grid.configs()
            job.total = len(configs)

            def on_progress(progress: SweepProgress) -> None:
                job.executed = progress.done

            with self.runners.checkout(
                cache=self.tenants.cache_for(job.tenant), progress=on_progress
            ) as runner:
                before = runner.stats.coalesced
                outcome = runner.run_outcomes(configs)
                job.coalesced = runner.stats.coalesced - before
            job.completed = job.total
            job.report = report_from_results(
                job.grid, configs, outcome.results, failures=outcome.failures
            )
            job.report_text = render_report(job.report)
            job.failures = outcome.failures
            final_state = JOB_PARTIAL if outcome.failures else JOB_DONE
        except Exception as error:  # noqa: BLE001 — job-level quarantine
            # The job, not the server, absorbs the failure: one bad
            # request must never take the process (or other tenants'
            # jobs) down.
            job.error = f"{type(error).__name__}: {error}"
            traceback.print_exc()
        finally:
            self.tenants.release_job(job.tenant)
            try:
                self.tenants.enforce_quota(job.tenant)
            except Exception:  # noqa: BLE001 — quota is advisory
                traceback.print_exc()
            job.finished = time.time()
            # Terminal state is published last, so anything a poller
            # may depend on (slot release, quota, report text) is
            # already visible when it observes the job as finished.
            job.state = final_state

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """JSON-safe service counters (for ``/v1/healthz``).

        ``coalesce.leaders`` counts the configs a runner resolved
        itself (a disk hit, an execution or a quarantine);
        ``coalesce.coalesced`` those it took from another runner's
        in-flight run.
        """
        stats = self.runners.stats()
        return {
            "jobs": self.counts(),
            "runner": stats.as_dict(),
            "coalesce": {
                "leaders": stats.cache_hits + stats.executed + stats.failed,
                "coalesced": stats.coalesced,
            },
            "in_flight": self.runners.memo.in_flight(),
        }

    def close(self, wait: bool = True) -> None:
        """Stop accepting jobs, drain (or abandon) workers, close runners."""
        with self._lock:
            self._closed = True
        self._executor.shutdown(wait=wait, cancel_futures=not wait)
        self.runners.close()
