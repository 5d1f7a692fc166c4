"""Jobs: the asynchronous sweep executions behind ``repro serve``.

:class:`Job`
    One submitted scenario: its grid, lifecycle state
    (see :mod:`repro.serve.protocol`), progress counters, quarantined
    failures, and — once finished — the deterministic report as
    rendered text, so ``GET .../report`` serves bytes identical to
    ``repro sweep`` on the same grid.

:class:`JobManager`
    Owns the server's one warm :class:`~repro.runner.sweep.SweepRunner`,
    built once at server start, so its process pool (interpreter
    startup, the per-worker :class:`~repro.runner.worker.RunContext`
    memos) and its result memo survive across requests — the whole
    point of running a service instead of a batch CLI.  Jobs run on a
    thread pool of ``max_jobs`` workers (excess jobs wait in state
    ``queued``) and take turns on the runner, so a job waiting for it
    is already ``running``: each job is one
    :meth:`~repro.runner.sweep.SweepRunner.run_outcomes` call under a
    lock, with the runner's disk cache bound to the job's tenant
    namespace (chosen by the
    :class:`~repro.serve.tenants.TenantManager`).  The memo is
    deliberately *not* cleared between jobs: results are pure functions
    of config, so overlapping jobs, of any tenants, execute each unique
    config exactly once.  The table keeps every queued and running job
    and the :data:`MAX_FINISHED_JOBS` most recently submitted finished
    ones; an older finished job is forgotten, and its id answers 404.
"""

from __future__ import annotations

import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..runner.config import SweepGrid
from ..runner.faults import RunFailure
from ..runner.report import render_report, report_from_results
from ..runner.sweep import SweepProgress, SweepRunner
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

__all__ = ["Job", "JobManager"]

# Finished jobs a server keeps for their status and report; past this
# the oldest is forgotten, so a long-lived server's table is bounded.
MAX_FINISHED_JOBS = 256


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
    executed: int = 0  # simulations this job actually ran
    failures: List[RunFailure] = field(default_factory=list)
    error: Optional[str] = None
    report_text: Optional[str] = None

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
            },
        }
        if self.failures:
            data["failures"] = [f.to_dict() for f in self.failures]
        if self.error is not None:
            data["error"] = self.error
        return data


class JobManager:
    """Owns the job table and drives executions through the warm runner."""

    def __init__(
        self,
        runner: SweepRunner,
        tenants: TenantManager,
        max_jobs: int = 8,
    ) -> None:
        if max_jobs < 1:
            raise ValueError(f"max_jobs must be >= 1, got {max_jobs}")
        self.runner = runner
        self.tenants = tenants
        # A runner is used by one thread at a time: jobs take turns.
        self._runner_lock = threading.Lock()
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
        """Accept *grid* as a new job for *tenant*.

        The grid must already be validated (``grid.configs()`` — the
        HTTP layer does this so spec errors are a 400, not a failed
        job).
        """
        with self._lock:
            if self._closed:
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

            with self._runner_lock:
                # The runner's process pool and memo persist across
                # jobs; only its disk cache (the tenant's namespace)
                # and its progress callback are per job.
                self.runner.cache = self.tenants.cache_for(job.tenant)
                self.runner._progress = on_progress
                try:
                    outcome = self.runner.run_outcomes(configs)
                finally:
                    self.runner.cache = None
                    self.runner._progress = None
            job.completed = job.total
            job.report_text = render_report(report_from_results(
                job.grid, configs, outcome.results, failures=outcome.failures
            ))
            job.failures = outcome.failures
            final_state = JOB_PARTIAL if outcome.failures else JOB_DONE
        except Exception as error:  # noqa: BLE001 — job-level quarantine
            # The job, not the server, absorbs the failure: one bad
            # request must never take the process (or other tenants'
            # jobs) down.
            job.error = f"{type(error).__name__}: {error}"
            traceback.print_exc()
        finally:
            job.finished = time.time()
            # Terminal state is published last, so anything a poller
            # may depend on (the report text, the finish time) is
            # already visible when it observes the job as finished;
            # the lock makes the table's trim visible by then too.
            with self._lock:
                job.state = final_state
                finished = [i for i in self._order
                            if self._jobs[i].state in TERMINAL_STATES]
                for job_id in finished[:-MAX_FINISHED_JOBS]:
                    del self._jobs[job_id]
                    self._order.remove(job_id)

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """JSON-safe service counters (for ``/v1/healthz``).

        ``coalesce.leaders`` counts the configs the runner resolved
        without its memo (a disk hit, an execution or a quarantine).
        ``coalesce.coalesced`` is always 0: it counted configs taken
        from another runner's in-flight run, and a server has one
        runner.  Both keys stay for readers of earlier servers.
        """
        stats = self.runner.stats
        return {
            "jobs": self.counts(),
            "runner": stats.as_dict(),
            "coalesce": {
                "leaders": stats.cache_hits + stats.executed + stats.failed,
                "coalesced": 0,
            },
        }

    def close(self, wait: bool = True) -> None:
        """Stop accepting jobs, drain (or abandon) workers, close the runner."""
        with self._lock:
            self._closed = True
        self._executor.shutdown(wait=wait, cancel_futures=not wait)
        self.runner.close()
