"""The parallel sweep runner.

:class:`SweepRunner` fans a list of :class:`RunConfig` out across
worker processes (``concurrent.futures.ProcessPoolExecutor``) with an
on-disk :class:`~repro.runner.cache.ResultCache` in front and an
in-memory memo behind it:

1. every config is first looked up in the in-process memo, a dict of
   the runner's finished results keyed by canonical cache key (``repro
   serve``'s jobs take turns on one runner, so they share it),
2. then in the on-disk cache (if one is configured),
3. remaining misses are deduplicated and executed — inline when
   ``workers <= 1`` and no timeout is set, otherwise on the pool — and
   written back to the cache together with a runtime-metadata sidecar.

Results are returned **in input order** regardless of which worker
finished first, so a sweep's output is byte-for-byte identical whether
it ran on 1 worker or 16 (and whether it was served cold or from
cache): ordering is positional and every run is a deterministic pure
function of its config.

Scheduling
----------
Misses are submitted to the pool in input order, one future per
config, and idle workers pull the next one.  Under a timeout at most
``workers`` futures are in flight, so each run's deadline starts when
a worker can start it.  Execution order never affects reported
results.

Failure semantics
-----------------
Every run is a pure function of its config, so a failure recurs on
every re-run: the runner **quarantines** a config on its first
failure, never retries it, and never lets it abort the sweep.

* **Worker exceptions:** the worker reports the failing config and
  the parent quarantines it.
* **Worker death** (OOM kill, segfault — surfacing as
  ``BrokenProcessPool``) rebuilds the pool automatically.  A lone
  unfinished config is quarantined as the culprit; several are all
  suspects, *probed* one config at a time so the next crash names its
  culprit.  A kill for memory depends on what ran beside it, so a
  suspect that succeeds alone is a result, not a failure.  A global
  rebuild budget stops a crash-looping environment from spinning
  forever.
* **Hung runs** are bounded by ``timeout``: each future gets a
  per-run wall-clock deadline enforced by the parent (a hung
  simulation never returns on its own); on expiry the pool is killed
  and rebuilt, the timed-out configs are quarantined, and innocent
  in-flight work is resubmitted.  Inline execution cannot interrupt
  itself, so a timeout always runs on the pool, of one process at
  ``workers=1``.
* **Cache I/O errors** degrade, never abort: a failed record write is
  warned about once and the sweep continues unpersisted.
* A **quarantined** config becomes a structured
  :class:`~repro.runner.faults.RunFailure` (config key, kind, error
  text, wall) in :meth:`SweepRunner.run_outcomes`'s result;
  :meth:`SweepRunner.run_many` is the strict form that raises
  :class:`~repro.runner.faults.SweepFailure` instead — after every
  healthy config completed, not fail-fast.

Failures never alter a result, only whether one is produced: every
surviving result is byte-identical to a fault-free sweep.  All
recovery paths are testable deterministically through
:class:`~repro.runner.faults.FaultPlan` injection
(``REPRO_FAULT_INJECT`` / the ``faults=`` argument).

Shared caches
-------------
Sweeps in different processes may share one cache directory.  When
their grids overlap, both may compute a config the other is computing;
that duplicates work but never changes a result, because records are
content-addressed and written atomically, so the second write replaces
the first with the same bytes.  Inside one runner, and so inside one
``repro serve``, the memo runs each config once.
"""

from __future__ import annotations

import concurrent.futures
import math
import os
import time
import warnings
from collections import deque
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..sim.results import SimulationResult
from .cache import ResultCache
from .config import RunConfig
from .faults import FaultPlan, RunFailure, SweepFailure
from .worker import execute_config, process_context

__all__ = [
    "SweepRunner",
    "SweepOutcome",
    "SweepStats",
    "SweepProgress",
    "coerce_workers",
    "default_workers",
]

# A pool future gets TIMEOUT_GRACE seconds past the run timeout before
# the parent declares it hung.
TIMEOUT_GRACE = 0.5


def coerce_workers(value, source: str = "workers") -> int:
    """A validated worker count from any plausible input.

    One coercion for every path a worker count enters the system —
    the ``SweepRunner(workers=...)`` argument, ``$REPRO_WORKERS``, and
    server flags — so they all agree: non-integer values (``"4x"``,
    ``2.5``, ``True``) are rejected with a message naming *source*;
    non-positive integers clamp to 1 (serial inline execution), since
    "no parallelism" is what zero workers can only mean.
    """
    if isinstance(value, bool):
        raise ValueError(f"{source} must be an integer, got {value!r}")
    if isinstance(value, int):
        count = value
    elif isinstance(value, float):
        if not value.is_integer():
            raise ValueError(
                f"{source} must be a whole number of worker processes, "
                f"got {value!r}"
            )
        count = int(value)
    elif isinstance(value, str):
        try:
            count = int(value.strip())
        except ValueError:
            raise ValueError(
                f"{source} must be an integer, got {value!r}"
            ) from None
    else:
        raise ValueError(
            f"{source} must be an integer, got {type(value).__name__}"
        )
    return max(1, count)


def default_workers() -> int:
    """Worker count when the caller does not choose.

    Honors the ``REPRO_WORKERS`` environment variable (so CI and shard
    launchers can cap process fan-out without plumbing flags), falling
    back to one worker per CPU.  Always at least 1.
    """
    env = os.environ.get("REPRO_WORKERS", "").strip()
    if env:
        return coerce_workers(env, source="REPRO_WORKERS")
    return max(1, os.cpu_count() or 1)


@dataclass
class SweepStats:
    """Accounting for one :class:`SweepRunner` instance.

    ``memory_hits`` are served from the in-process memo, ``cache_hits``
    from disk, and ``executed`` were actually simulated.  ``requested``
    is the total number of configs asked for, so with no failures
    ``requested == memory_hits + cache_hits + executed`` after every
    call (duplicate configs inside one call count as memory hits).
    ``failed`` counts configs quarantined as
    :class:`~repro.runner.faults.RunFailure`.
    """

    requested: int = 0
    memory_hits: int = 0
    cache_hits: int = 0
    executed: int = 0
    failed: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


@dataclass(frozen=True)
class SweepProgress:
    """One live-progress tick (misses only; hits complete instantly)."""

    done: int
    total: int
    elapsed_seconds: float

    @property
    def eta_seconds(self) -> float:
        """Seconds left at the completion rate measured so far; ``inf``
        until the first config has finished."""
        if self.done <= 0:
            return math.inf
        return self.elapsed_seconds * (self.total - self.done) / self.done


@dataclass
class SweepOutcome:
    """What a fault-tolerant sweep produced.

    ``results[i]`` is the :class:`~repro.sim.results.SimulationResult`
    of ``configs[i]``, or None when that config was quarantined;
    ``failures`` holds one :class:`~repro.runner.faults.RunFailure`
    per distinct quarantined config, in first-seen order.
    """

    results: List[Optional[SimulationResult]]
    failures: List[RunFailure] = field(default_factory=list)


@dataclass
class _Flight:
    """One in-flight pool future: which config, when, and its deadline."""

    index: int
    submitted: float
    deadline: Optional[float]
    probe: bool = False


class SweepRunner:
    """Runs batches of configs with caching, parallelism and fault tolerance.

    A runner is used by one thread at a time: its memo, stats, cache
    binding and pool are unlocked.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache_dir=None,
        context=None,
        progress: Optional[Callable[[SweepProgress], None]] = None,
        timeout: Optional[float] = None,
        faults: Union[FaultPlan, str, None] = None,
    ) -> None:
        """*context* is the :class:`~repro.runner.worker.RunContext` used
        for inline execution (``workers <= 1`` and no timeout); it
        defaults to the process-wide one.  Pool workers always use
        their own process's context.  Auto-fidelity runs share their
        scheme-independent replay streams through the context's
        :class:`~repro.runner.state_cache.StateCache`, with or without a
        *cache_dir*.  *progress* is called with a :class:`SweepProgress`
        after every completed miss.  *timeout* is the per-run wall-clock
        budget in seconds (positive and finite; None for none), counted
        from when a worker can start the run; *faults* is a
        fault-injection plan or spec string, defaulting to
        ``$REPRO_FAULT_INJECT`` so chaos runs need no plumbing."""
        self.workers = coerce_workers(workers) if workers is not None else 1
        if timeout is not None and not 0 < timeout < math.inf:
            raise ValueError(f"timeout must be positive and finite, got {timeout}")
        self.timeout = timeout
        self.faults = (
            FaultPlan.parse(faults) if faults is not None else FaultPlan.from_env()
        )
        self.cache: Optional[ResultCache] = (
            ResultCache(cache_dir, faults=self.faults)
            if cache_dir is not None else None
        )
        self.stats = SweepStats()
        self._progress = progress
        self._memory: Dict[str, SimulationResult] = {}
        self._context = context
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None
        self._cache_warned = False

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run_one(self, config: RunConfig) -> SimulationResult:
        return self.run_many([config])[0]

    def run_many(self, configs: Sequence[RunConfig]) -> List[SimulationResult]:
        """Run every config; results in input order.  Strict: raises
        :class:`~repro.runner.faults.SweepFailure` if any config was
        quarantined — but only after every healthy config completed."""
        outcome = self.run_outcomes(configs)
        if outcome.failures:
            raise SweepFailure(outcome.failures)
        return outcome.results  # type: ignore[return-value]

    def run_outcomes(self, configs: Sequence[RunConfig]) -> SweepOutcome:
        """Run every config (cache-aware, parallel, fault-tolerant).

        Never raises for per-run failures: quarantined configs come
        back as ``None`` results plus structured ``failures`` entries.
        Failed configs are *not* memoized — a later call runs them
        again.
        """
        configs = list(configs)
        self.stats.requested += len(configs)
        keys = [c.config_hash() for c in configs]
        outcomes: Dict[str, Union[SimulationResult, RunFailure]] = {}
        misses: Dict[str, RunConfig] = {}
        # 1: the memo, then disk.  Keys are deduplicated, so one config
        # requested twice in a batch is simulated once.
        for config, key in zip(configs, keys):
            if key in outcomes or key in misses:
                self.stats.memory_hits += 1
            elif key in self._memory:
                outcomes[key] = self._memory[key]
                self.stats.memory_hits += 1
            else:
                cached = self.cache.get(config) if self.cache is not None else None
                if cached is None:
                    misses[key] = config
                else:
                    outcomes[key] = self._memory[key] = cached
                    self.stats.cache_hits += 1

        # 2: execute the misses.
        if misses:
            computed = self._execute(list(misses.values()))
            for (key, config), entry in zip(misses.items(), computed):
                if isinstance(entry, RunFailure):
                    outcomes[key] = entry
                    self.stats.failed += 1
                    continue
                result, wall = entry
                outcomes[key] = self._memory[key] = result
                self.stats.executed += 1
                if self.cache is not None:
                    try:
                        self.cache.put(config, result, wall_seconds=wall)
                    except OSError as error:
                        self._cache_degraded(error)

        failures = {
            key: outcomes[key] for key in keys
            if isinstance(outcomes[key], RunFailure)
        }
        return SweepOutcome(
            results=[
                None if key in failures else outcomes[key] for key in keys
            ],
            failures=list(failures.values()),
        )

    # ------------------------------------------------------------------
    # Execution strategies
    # ------------------------------------------------------------------
    # Each executed entry is (result, wall_seconds), or a RunFailure
    # when the config was quarantined.
    _Entry = Union[Tuple[SimulationResult, float], RunFailure]

    def _execute(self, configs: List[RunConfig]) -> List["SweepRunner._Entry"]:
        """Simulate *configs*, returning entries in input order.

        Inline execution cannot interrupt itself, so a timeout always
        runs on the pool, of one process at ``workers=1``.
        """
        if self.timeout is not None or (self.workers > 1 and len(configs) > 1):
            return self._execute_pool(configs)
        return self._execute_inline(configs)

    def _emit_progress(self, progress: SweepProgress) -> None:
        """Invoke the user's progress callback, defusing it on error.

        A raising callback is a reporting problem, not an execution
        problem: it is warned about once and disabled rather than
        allowed to abort a long sweep mid-flight.
        """
        if self._progress is None:
            return
        try:
            self._progress(progress)
        except Exception as error:  # noqa: BLE001 — user code, contained
            warnings.warn(
                f"progress callback raised {type(error).__name__}: {error}; "
                f"disabling progress reporting for this runner",
                RuntimeWarning,
                stacklevel=2,
            )
            self._progress = None

    def _cache_degraded(self, error: OSError) -> None:
        """Warn once that record writes are failing; results still flow."""
        if self._cache_warned:
            return
        self._cache_warned = True
        warnings.warn(
            f"result-cache write failed ({error}); continuing without "
            f"persisting — re-runs will recompute instead of hitting cache",
            RuntimeWarning,
            stacklevel=2,
        )

    def _failure(
        self, config: RunConfig, kind: str, error: str, wall: float
    ) -> RunFailure:
        return RunFailure(
            key=config.config_hash(),
            benchmark=config.benchmark_name,
            scheme=config.scheme_name,
            config=config.to_dict(),
            kind=kind,
            error=error,
            wall_seconds=wall,
        )

    def _execute_inline(
        self, configs: List[RunConfig]
    ) -> List["SweepRunner._Entry"]:
        """Serial in-process execution (never under a timeout, which
        needs the pool)."""
        context = self._context if self._context is not None else process_context()
        plan = self.faults
        started = time.perf_counter()
        out: List[SweepRunner._Entry] = []
        for done, config in enumerate(configs, start=1):
            run_started = time.perf_counter()
            try:
                if plan is not None:
                    plan.apply(
                        config.benchmark_name, config.scheme_name,
                        allow_exit=False,
                    )
                result = context.execute(config)
            except Exception as error:  # noqa: BLE001 — quarantined, reported
                out.append(self._failure(
                    config, "exception", f"{type(error).__name__}: {error}",
                    time.perf_counter() - run_started,
                ))
            else:
                out.append((result, time.perf_counter() - run_started))
            self._emit_progress(SweepProgress(
                done=done, total=len(configs),
                elapsed_seconds=time.perf_counter() - started,
            ))
        return out

    def _execute_pool(
        self, configs: List[RunConfig]
    ) -> List["SweepRunner._Entry"]:
        """Parallel execution with worker-death and timeout recovery.

        Every pool task runs one config.  The orchestration loop
        tracks every config through exactly one place at a time — an
        in-flight future, the probe queue (crash forensics), the
        resubmission backlog, or a final entry — so the loop
        terminates exactly when all configs are resolved.  See the
        module docstring for the recovery rules.
        """
        n = len(configs)
        payloads = [c.to_dict() for c in configs]
        fault_spec = self.faults.spec if self.faults is not None else None
        budget = self.timeout + TIMEOUT_GRACE if self.timeout is not None else None

        entries: List[Optional[SweepRunner._Entry]] = [None] * n
        started = time.perf_counter()
        done_count = 0

        pending: Dict[concurrent.futures.Future, _Flight] = {}
        probe_queue: deque = deque()  # crash suspects, probed one at a time
        backlog: deque = deque(range(n))  # awaiting (re)submission
        rebuilds = 0
        # Enough rebuilds for every config to crash out individually,
        # twice (as a suspect, then as a probe); beyond this the
        # environment itself is killing workers.
        rebuild_budget = max(8, 2 * n)

        def resolve(i: int, entry: "SweepRunner._Entry") -> None:
            nonlocal done_count
            entries[i] = entry
            done_count += 1
            self._emit_progress(SweepProgress(
                done=done_count, total=n,
                elapsed_seconds=time.perf_counter() - started,
            ))

        def quarantine(i: int, kind: str, error: str, wall: float) -> None:
            resolve(i, self._failure(configs[i], kind, error, wall))

        def process_payload(i: int, payload: Dict[str, object]) -> None:
            if "error" in payload:
                quarantine(
                    i, "exception", str(payload["error"]),
                    float(payload.get("wall_seconds", 0.0)),
                )
                return
            resolve(i, (
                SimulationResult.from_dict(payload["result"]),
                float(payload["wall_seconds"]),
            ))

        def kill_pool() -> None:
            nonlocal rebuilds
            rebuilds += 1
            pool, self._pool = self._pool, None
            if pool is None:
                return
            # Hung or wedged workers never drain the task queue, so a
            # plain shutdown would wait forever: terminate first.
            for proc in list(getattr(pool, "_processes", {}).values() or []):
                try:
                    proc.terminate()
                except Exception:  # noqa: BLE001 — already-dead is fine
                    pass
            pool.shutdown(wait=False, cancel_futures=True)

        def harvest_pending() -> List[_Flight]:
            """Collect finished futures' results; return unfinished flights."""
            unfinished = []
            for future, flight in list(pending.items()):
                if (
                    future.done() and not future.cancelled()
                    and future.exception() is None
                ):
                    process_payload(flight.index, future.result())
                else:
                    unfinished.append(flight)
            pending.clear()
            return unfinished

        def exhaust_budget() -> None:
            """Too many rebuilds: quarantine everything unresolved."""
            probe_queue.clear()
            backlog.clear()
            for i in range(n):
                if entries[i] is None:
                    quarantine(
                        i, "worker-crash",
                        f"pool rebuild budget exhausted after {rebuilds} "
                        f"rebuilds — workers are dying faster than runs "
                        f"complete",
                        0.0,
                    )

        def submit(i: int, probe: bool = False) -> bool:
            if self._pool is None:
                self._pool = concurrent.futures.ProcessPoolExecutor(
                    max_workers=self.workers
                )
            try:
                future = self._pool.submit(
                    execute_config, payloads[i], fault_spec
                )
            except BrokenProcessPool:
                # Pool died between our last observation and this
                # submit: recycle it and let the caller re-queue.
                kill_pool()
                return False
            now = time.monotonic()
            pending[future] = _Flight(
                index=i, submitted=now,
                deadline=(now + budget) if budget is not None else None,
                probe=probe,
            )
            return True

        # -- orchestration loop ------------------------------------------
        while True:
            if rebuilds > rebuild_budget:
                exhaust_budget()
                break
            if probe_queue or any(flight.probe for flight in pending.values()):
                # Crash forensics: exactly one future in flight, so the
                # next pool break names that probe's config alone.
                if not pending and probe_queue:
                    i = probe_queue.popleft()
                    if not submit(i, probe=True):
                        probe_queue.appendleft(i)
            else:
                # A deadline starts at submission, so under a timeout no
                # more runs are submitted than there are workers to
                # start them.
                while backlog and (budget is None or len(pending) < self.workers):
                    i = backlog.popleft()
                    if not submit(i):
                        backlog.appendleft(i)
                        break

            if not pending:
                if probe_queue or backlog:
                    continue  # submit() recycled the pool; try again
                break  # everything resolved

            # Block until a future finishes or the nearest deadline.
            deadlines = [
                flight.deadline for flight in pending.values()
                if flight.deadline is not None
            ]
            done, _ = concurrent.futures.wait(
                list(pending),
                timeout=(
                    max(0.0, min(deadlines) - time.monotonic())
                    if deadlines else None
                ),
                return_when=concurrent.futures.FIRST_COMPLETED,
            )

            pool_broke = False
            for future in done:
                flight = pending.pop(future)
                try:
                    payload = future.result()
                except (BrokenProcessPool, concurrent.futures.BrokenExecutor):
                    pool_broke = True
                    pending[future] = flight  # reclassified by harvest below
                except Exception as error:  # noqa: BLE001 — infra failure
                    # The future failed without killing the pool
                    # (pickling error, spec rejected by the worker...).
                    quarantine(
                        flight.index, "worker-crash",
                        f"{type(error).__name__}: {error}",
                        time.monotonic() - flight.submitted,
                    )
                else:
                    process_payload(flight.index, payload)

            if pool_broke:
                # A worker died; every unfinished future is suspect
                # (the executor fails them all).  Harvest what did
                # finish and rebuild the pool.  A lone suspect is the
                # culprit; several are probed one at a time.
                suspects = [flight.index for flight in harvest_pending()]
                kill_pool()
                if rebuilds > rebuild_budget:
                    exhaust_budget()
                    break
                if len(suspects) == 1:
                    quarantine(
                        suspects[0], "worker-crash",
                        "worker process died (BrokenProcessPool)", 0.0,
                    )
                else:
                    probe_queue.extend(suspects)
                continue

            now = time.monotonic()
            expired = [
                flight for flight in pending.values()
                if flight.deadline is not None and now >= flight.deadline
            ]
            if expired:
                # A worker is hung past its wall-clock budget.  An
                # expired future names its config precisely; other
                # in-flight work is innocent but shares the pool we
                # must kill, so it is resubmitted.
                unfinished = harvest_pending()
                kill_pool()
                if rebuilds > rebuild_budget:
                    exhaust_budget()
                    break
                expired_ids = {id(flight) for flight in expired}
                for flight in unfinished:
                    if id(flight) in expired_ids:
                        quarantine(
                            flight.index, "timeout",
                            f"run exceeded the {self.timeout}s wall-clock "
                            f"timeout",
                            now - flight.submitted,
                        )
                    else:
                        backlog.append(flight.index)

        return entries  # type: ignore[return-value]

    def close(self) -> None:
        """Shut the worker pool down (no-op when none was started)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Always release the pool, success or error: a leaked
        # ProcessPoolExecutor keeps worker processes alive until
        # interpreter exit.
        self.close()

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def cached_runs(self) -> int:
        """Distinct results currently held in the in-process memo."""
        return len(self._memory)

    def __repr__(self) -> str:
        return (
            f"SweepRunner(workers={self.workers}, "
            f"cache={getattr(self.cache, 'root', None)!r}, "
            f"stats={self.stats.as_dict()})"
        )
