"""The parallel sweep runner.

:class:`SweepRunner` fans a list of :class:`RunConfig` out across
worker processes (``concurrent.futures.ProcessPoolExecutor``) with an
on-disk :class:`~repro.runner.cache.ResultCache` in front and an
in-memory memo behind it:

1. every config is first looked up in the in-process memo, which is
   single-flight (:class:`RunMemo`): an entry is a finished result or
   a key some runner is computing, and the runners of a
   :class:`~repro.serve.jobs.RunnerPool` share one memo, so a config
   in flight on one runner is waited for, not run again, by the others,
2. then in the on-disk cache (if one is configured),
3. remaining misses are deduplicated and executed — inline when
   ``workers <= 1``, otherwise on the pool — and written back to the
   cache together with a runtime-metadata sidecar.

Results are returned **in input order** regardless of which worker
finished first, so a sweep's output is byte-for-byte identical whether
it ran on 1 worker or 16 (and whether it was served cold or from
cache): ordering is positional and every run is a deterministic pure
function of its config.

Scheduling
----------
Misses are submitted to the pool in input order, one future per
config, and idle workers pull the next one.  Execution order never
affects reported results.

Failure semantics
-----------------
The runner survives every failure class a real fleet hits, governed by
a :class:`~repro.runner.faults.FailurePolicy`:

* **Worker exceptions** never abort the sweep: the worker reports the
  failing config, and the parent retries it with exponential backoff
  and deterministic jitter up to ``max_retries`` times before
  quarantining it.
* **Worker death** (OOM kill, segfault — surfacing as
  ``BrokenProcessPool``) rebuilds the pool automatically.  A lone
  unfinished config is charged with the crash; several are all
  suspects, *probed* one config at a time so the next crash names its
  culprit, which is charged and eventually quarantined.  A global
  rebuild budget stops a crash-looping environment from spinning
  forever.
* **Hung runs** are bounded by ``policy.timeout``: each future gets a
  per-run wall-clock deadline enforced by the parent (a hung
  simulation never returns on its own); on expiry the pool is killed
  and rebuilt, innocent in-flight work is resubmitted uncharged, and
  the timed-out configs are retried / quarantined like crashes.
* **Cache I/O errors** degrade, never abort: a failed record write is
  warned about once and the sweep continues unpersisted.
* A **quarantined** config becomes a structured
  :class:`~repro.runner.faults.RunFailure` (config key, kind, error
  text, attempts, wall) in :meth:`SweepRunner.run_outcomes`'s result;
  :meth:`SweepRunner.run_many` is the strict form that raises
  :class:`~repro.runner.faults.SweepFailure` instead — after every
  healthy config completed, not fail-fast.

Retries and timeouts never alter a result, only whether one is
produced: a run that eventually succeeds is byte-identical to one that
succeeded first try.  Timeout enforcement needs the pool (inline
execution cannot interrupt itself); inline runs still retry
exceptions.  All recovery paths are testable deterministically through
:class:`~repro.runner.faults.FaultPlan` injection
(``REPRO_FAULT_INJECT`` / the ``faults=`` argument).

Claims
------
With ``claims=True`` (and a cache configured), the runner participates
in the cache's claim-file protocol: before executing a miss it tries
to atomically claim the key; keys claimed by a concurrent process
(e.g. an overlapping sweep sharing the cache dir) are *polled* for
every :data:`CLAIM_POLL` seconds instead of re-run.  A key whose claim
vanishes without a record runs locally, and so does every key still
waiting after :data:`CLAIM_TTL` seconds, the age at which a peer's
claim counts as stale and is taken over.
Correctness never depends on claims — they only avoid duplicate work.
Claims this runner owns are released exactly once, nonce-verified, so
a claim released-then-reacquired by a peer is never deleted out from
under that peer.
"""

from __future__ import annotations

import concurrent.futures
import heapq
import math
import os
import threading
import time
import warnings
from collections import deque
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..sim.results import SimulationResult
from .cache import CacheStats, ResultCache
from .config import RunConfig
from .faults import FailurePolicy, FaultPlan, RunFailure, SweepFailure
from .worker import _state_cache_for, execute_config, process_context

__all__ = [
    "RunMemo",
    "SweepRunner",
    "SweepOutcome",
    "SweepStats",
    "SweepProgress",
    "coerce_workers",
    "default_workers",
]

# Claim protocol timing (see the module docstring).
CLAIM_TTL = 1800.0
CLAIM_POLL = 0.25


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
    from disk (including results stolen from a concurrent claimant),
    ``executed`` were actually simulated, and ``coalesced`` were taken
    from another runner's in-flight run through a shared memo.
    ``requested`` is the total number of configs asked for, so with no
    failures ``requested == memory_hits + cache_hits + executed +
    coalesced`` after every call (duplicate configs inside one call
    count as memory hits).  ``retries`` counts re-executions the
    failure policy scheduled; ``failed`` counts configs quarantined as
    :class:`~repro.runner.faults.RunFailure`.
    """

    requested: int = 0
    memory_hits: int = 0
    cache_hits: int = 0
    executed: int = 0
    retries: int = 0
    failed: int = 0
    coalesced: int = 0

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

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class _Flight:
    """One in-flight pool future: which config, when, and its deadline."""

    index: int
    submitted: float
    deadline: Optional[float]
    probe: bool = False


class _Running:
    """A memo key some runner is computing; waiters block on ``done``."""

    def __init__(self) -> None:
        self.done = threading.Event()
        self.outcome: Union[SimulationResult, RunFailure, None] = None


class RunMemo:
    """The in-process result memo, single-flight across the runners
    that share it.

    Each entry is a finished result or a :class:`_Running` marker for a
    key one runner leads.  A leader publishes every key it leads, in a
    ``finally``, before it waits on keys another runner leads, so the
    leader of a waited-on key is executing or done, never waiting, and
    runners sharing a memo cannot deadlock.  A published
    :class:`~repro.runner.faults.RunFailure` wakes the waiters and
    leaves the memo, so a later call retries the config.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: Dict[str, Union[SimulationResult, _Running]] = {}

    def join(self, key: str) -> Union[SimulationResult, _Running, None]:
        """The entry for *key*; None when the caller now leads it."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._entries[key] = _Running()
            return entry

    def publish(
        self, key: str, outcome: Union[SimulationResult, RunFailure]
    ) -> None:
        """Resolve a key the caller leads and wake its waiters."""
        with self._lock:
            running = self._entries.pop(key)
            if isinstance(outcome, SimulationResult):
                self._entries[key] = outcome
        running.outcome = outcome
        running.done.set()

    def in_flight(self) -> int:
        """Keys some runner is computing right now."""
        with self._lock:
            return sum(isinstance(e, _Running) for e in self._entries.values())

    def finished(self) -> int:
        """Results held."""
        with self._lock:
            return sum(
                not isinstance(e, _Running) for e in self._entries.values()
            )


class SweepRunner:
    """Runs batches of configs with caching, parallelism and fault tolerance."""

    def __init__(
        self,
        workers: Optional[int] = None,
        cache_dir=None,
        context=None,
        claims: bool = False,
        progress: Optional[Callable[[SweepProgress], None]] = None,
        policy: Optional[FailurePolicy] = None,
        faults: Union[FaultPlan, str, None] = None,
    ) -> None:
        """*context* is the :class:`~repro.runner.worker.RunContext` used
        for inline execution (``workers <= 1``); it defaults to the
        process-wide one.  Pool workers always use their own process's
        context.  See the module docstring for *claims*;
        *progress* is called with a :class:`SweepProgress` after every
        completed miss.  *policy* governs retries/timeouts
        (defaults to :class:`~repro.runner.faults.FailurePolicy`);
        *faults* is a fault-injection plan or spec string, defaulting
        to ``$REPRO_FAULT_INJECT`` so chaos runs need no plumbing.

        With a *cache_dir*, auto-fidelity runs share their
        scheme-independent replay streams through the warmed-state
        cache (:mod:`repro.runner.state_cache`) in ``<cache_dir>/state``;
        without one they build every stream themselves."""
        self.workers = coerce_workers(workers) if workers is not None else 1
        self.policy = policy if policy is not None else FailurePolicy()
        self.faults = (
            FaultPlan.parse(faults) if faults is not None else FaultPlan.from_env()
        )
        self.cache: Optional[ResultCache] = (
            ResultCache(cache_dir, faults=self.faults)
            if cache_dir is not None else None
        )
        self.state_dir: Optional[str] = (
            str(Path(cache_dir) / "state") if cache_dir is not None else None
        )
        self.stats = SweepStats()
        self.claims = bool(claims) and self.cache is not None
        self._progress = progress
        self._memory = RunMemo()
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
        quarantined — but only after every healthy config completed,
        so a retried-and-recovered sweep returns normally."""
        outcome = self.run_outcomes(configs)
        if outcome.failures:
            raise SweepFailure(outcome.failures)
        return outcome.results  # type: ignore[return-value]

    def run_outcomes(self, configs: Sequence[RunConfig]) -> SweepOutcome:
        """Run every config (cache-aware, parallel, fault-tolerant).

        Never raises for per-run failures: quarantined configs come
        back as ``None`` results plus structured ``failures`` entries.
        Failed configs are *not* memoized — a later call retries them
        afresh.
        """
        configs = list(configs)
        self.stats.requested += len(configs)
        keys = [c.config_hash() for c in configs]
        outcomes: Dict[str, Union[SimulationResult, RunFailure]] = {}
        led: Dict[str, RunConfig] = {}  # keys this call resolves itself
        waits: Dict[str, _Running] = {}  # keys another runner leads
        try:
            # 1: the memo.  Keys are deduplicated, so one config
            # requested twice in a batch is simulated once.
            for config, key in zip(configs, keys):
                if key in outcomes or key in led or key in waits:
                    self.stats.memory_hits += 1
                    continue
                entry = self._memory.join(key)
                if entry is None:
                    led[key] = config
                elif isinstance(entry, _Running):
                    waits[key] = entry
                else:
                    outcomes[key] = entry
                    self.stats.memory_hits += 1
            self.stats.coalesced += len(waits)

            # 2: disk.
            misses: List[str] = []
            for key, config in led.items():
                cached = self.cache.get(config) if self.cache is not None else None
                if cached is not None:
                    outcomes[key] = cached
                    self.stats.cache_hits += 1
                else:
                    misses.append(key)

            # 3: execute the misses.  ``wall`` is None when a concurrent
            # claimant computed the result and we only read it back;
            # ``persisted`` is True when the claims path already wrote
            # the record (before releasing its claim).
            if misses:
                computed = self._execute([led[key] for key in misses])
                for key, entry in zip(misses, computed):
                    if isinstance(entry, RunFailure):
                        outcomes[key] = entry
                        self.stats.failed += 1
                        continue
                    result, wall, persisted = entry
                    outcomes[key] = result
                    if wall is None:
                        self.stats.cache_hits += 1
                    else:
                        self.stats.executed += 1
                        if self.cache is not None and not persisted:
                            try:
                                self.cache.put(
                                    led[key], result, wall_seconds=wall
                                )
                            except OSError as error:
                                self._cache_degraded(error)
        finally:
            # Publish before waiting, even when execution raised, so no
            # waiter hangs on a key this call leads.
            for key, config in led.items():
                self._memory.publish(key, outcomes.get(key) or self._failure(
                    config, key, "exception",
                    "the leading run raised before this config resolved",
                    0, 0.0,
                ))

        # 4: the keys other runners lead.
        for key, running in waits.items():
            running.done.wait()
            outcomes[key] = running.outcome
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
    # Each executed entry is (result, wall_seconds, persisted) — wall is
    # None for results stolen from a peer, persisted is True when the
    # record already reached the cache (claims write before releasing) —
    # or a RunFailure when the config was quarantined.
    _Executed = Tuple[SimulationResult, Optional[float], bool]
    _Entry = Union[_Executed, RunFailure]

    def _execute(self, configs: List[RunConfig]) -> List["SweepRunner._Entry"]:
        if self.claims:
            return self._execute_with_claims(configs)
        return self._execute_batch(configs)

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
        self, config: RunConfig, key: str, kind: str, error: str,
        attempts: int, wall: float,
    ) -> RunFailure:
        return RunFailure(
            key=key,
            benchmark=config.benchmark_name,
            scheme=config.scheme_name,
            config=config.to_dict(),
            kind=kind,
            error=error,
            attempts=attempts,
            wall_seconds=wall,
        )

    def _execute_batch(
        self, configs: List[RunConfig]
    ) -> List["SweepRunner._Entry"]:
        """Simulate *configs*, returning entries in input order."""
        use_pool = self.workers > 1 and (
            len(configs) > 1 or self.policy.timeout is not None
        )
        if not use_pool:
            return self._execute_inline(configs)
        return self._execute_pool(configs)

    def _execute_inline(
        self, configs: List[RunConfig]
    ) -> List["SweepRunner._Entry"]:
        """Serial in-process execution with retries (no timeout: inline
        execution cannot interrupt itself — use workers > 1 for that)."""
        context = self._context if self._context is not None else process_context()
        state_cache = _state_cache_for(self.state_dir)
        policy = self.policy
        plan = self.faults
        started = time.perf_counter()
        out: List[SweepRunner._Entry] = []
        for done, config in enumerate(configs, start=1):
            key = config.config_hash()
            attempt = 0
            wall_total = 0.0
            while True:
                run_started = time.perf_counter()
                try:
                    if plan is not None:
                        plan.apply(
                            config.benchmark_name, config.scheme_name,
                            key, attempt, allow_exit=False,
                        )
                    result = context.execute(config, state_cache=state_cache)
                except Exception as error:  # noqa: BLE001 — retried/reported
                    wall_total += time.perf_counter() - run_started
                    attempt += 1
                    if attempt >= policy.max_attempts:
                        out.append(self._failure(
                            config, key, "exception",
                            f"{type(error).__name__}: {error}",
                            attempt, wall_total,
                        ))
                        break
                    self.stats.retries += 1
                    time.sleep(policy.backoff_seconds(key, attempt))
                    continue
                out.append((result, time.perf_counter() - run_started, False))
                break
            self._emit_progress(SweepProgress(
                done=done, total=len(configs),
                elapsed_seconds=time.perf_counter() - started,
            ))
        return out

    def _execute_pool(
        self, configs: List[RunConfig]
    ) -> List["SweepRunner._Entry"]:
        """Parallel execution with the full failure policy.

        Every pool task runs one config.  The orchestration loop
        tracks every config through exactly one place at a time — an
        in-flight future, the retry heap, the probe queue (crash
        forensics), the resubmission backlog, or a final entry — so
        the loop terminates exactly when all configs are resolved.
        See the module docstring for the recovery rules.
        """
        n = len(configs)
        policy = self.policy
        keys = [c.config_hash() for c in configs]
        payloads = [c.to_dict() for c in configs]
        fault_spec = self.faults.spec if self.faults is not None else None
        budget = policy.deadline_seconds()

        entries: List[Optional[SweepRunner._Entry]] = [None] * n
        attempts = [0] * n  # failed attempts charged so far, per config
        fail_wall = [0.0] * n
        started = time.perf_counter()
        done_count = 0

        pending: Dict[concurrent.futures.Future, _Flight] = {}
        retry_heap: List[Tuple[float, int]] = []  # (ready time, index)
        probe_queue: deque = deque()  # crash suspects, probed one at a time
        backlog: deque = deque(range(n))  # awaiting (re)submission
        rebuilds = 0
        # Enough rebuilds for every config to crash out individually,
        # twice per attempt (as a suspect, then as a probe); beyond
        # this the environment itself is killing workers and retrying
        # is harm, not help.
        rebuild_budget = max(8, 2 * policy.max_attempts * n)

        def tick() -> None:
            self._emit_progress(SweepProgress(
                done=done_count, total=n,
                elapsed_seconds=time.perf_counter() - started,
            ))

        def charge(i: int, kind: str, error: str, wall: float) -> None:
            """One failed attempt of config *i*: retry or quarantine."""
            nonlocal done_count
            attempts[i] += 1
            fail_wall[i] += wall
            if attempts[i] >= policy.max_attempts:
                entries[i] = self._failure(
                    configs[i], keys[i], kind, error, attempts[i], fail_wall[i]
                )
                done_count += 1
            else:
                self.stats.retries += 1
                ready = time.monotonic() + policy.backoff_seconds(
                    keys[i], attempts[i]
                )
                heapq.heappush(retry_heap, (ready, i))
            tick()

        def process_payload(i: int, payload: Dict[str, object]) -> None:
            nonlocal done_count
            if "error" in payload:
                charge(
                    i, "exception", str(payload["error"]),
                    float(payload.get("wall_seconds", 0.0)),
                )
                return
            entries[i] = (
                SimulationResult.from_dict(payload["result"]),
                float(payload["wall_seconds"]),
                False,
            )
            done_count += 1
            tick()

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
            nonlocal done_count
            probe_queue.clear()
            backlog.clear()
            retry_heap.clear()
            for i in range(n):
                if entries[i] is None:
                    entries[i] = self._failure(
                        configs[i], keys[i], "worker-crash",
                        f"pool rebuild budget exhausted after {rebuilds} "
                        f"rebuilds — workers are dying faster than runs "
                        f"complete",
                        attempts[i] + 1, fail_wall[i],
                    )
                    done_count += 1
            tick()

        def submit(i: int, probe: bool = False) -> bool:
            if self._pool is None:
                self._pool = concurrent.futures.ProcessPoolExecutor(
                    max_workers=self.workers
                )
            try:
                future = self._pool.submit(
                    execute_config, payloads[i], fault_spec, attempts[i],
                    self.state_dir,
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
            now = time.monotonic()
            probing = bool(probe_queue) or any(
                flight.probe for flight in pending.values()
            )
            if probing:
                # Crash forensics: exactly one future in flight, so the
                # next pool break names that probe's config alone.
                if not pending and probe_queue:
                    i = probe_queue.popleft()
                    if not submit(i, probe=True):
                        probe_queue.appendleft(i)
            else:
                while backlog:
                    i = backlog.popleft()
                    if not submit(i):
                        backlog.appendleft(i)
                        break
                while retry_heap and retry_heap[0][0] <= now:
                    _, i = heapq.heappop(retry_heap)
                    if entries[i] is not None:
                        continue
                    if not submit(i):
                        heapq.heappush(retry_heap, (now, i))
                        break

            if not pending:
                if probe_queue or backlog:
                    continue  # submit() recycled the pool; try again
                if retry_heap:
                    time.sleep(
                        min(0.2, max(0.0, retry_heap[0][0] - time.monotonic()))
                    )
                    continue
                break  # everything resolved

            # How long may we block?  Until the nearest deadline or the
            # nearest retry becoming ready, whichever comes first.
            wait_timeout: Optional[float] = None
            horizons = [
                flight.deadline for flight in pending.values()
                if flight.deadline is not None
            ]
            if retry_heap and not probing:
                horizons.append(retry_heap[0][0])
            if horizons:
                wait_timeout = max(0.0, min(horizons) - time.monotonic())
            done, _ = concurrent.futures.wait(
                list(pending), timeout=wait_timeout,
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
                    charge(
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
                    charge(
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
                # must kill, so it is resubmitted uncharged.
                unfinished = harvest_pending()
                kill_pool()
                if rebuilds > rebuild_budget:
                    exhaust_budget()
                    break
                expired_ids = {id(flight) for flight in expired}
                for flight in unfinished:
                    if id(flight) in expired_ids:
                        charge(
                            flight.index, "timeout",
                            f"run exceeded the {policy.timeout}s wall-clock "
                            f"timeout",
                            now - flight.submitted,
                        )
                    else:
                        backlog.append(flight.index)

        return entries  # type: ignore[return-value]

    def _execute_with_claims(
        self, configs: List[RunConfig]
    ) -> List["SweepRunner._Entry"]:
        """Claim-aware execution: run what we claim, poll what peers hold."""
        assert self.cache is not None
        n = len(configs)
        keys = [c.config_hash() for c in configs]
        results: List[Optional[SweepRunner._Entry]] = [None] * n

        owned: List[int] = []
        deferred: List[int] = []
        nonces: Dict[str, str] = {}
        for i, key in enumerate(keys):
            nonce = self.cache.try_claim(key)
            if not nonce:
                # Dead peer: a stale claim is atomically replaced.
                nonce = self.cache.take_over_claim(key, CLAIM_TTL)
            if nonce:
                owned.append(i)
                nonces[key] = nonce
            else:
                deferred.append(i)

        if owned:
            released: set = set()
            try:
                computed = self._execute_batch([configs[i] for i in owned])
                for i, entry in zip(owned, computed):
                    key = keys[i]
                    if isinstance(entry, RunFailure):
                        # No record will ever appear for this key: drop
                        # the claim now so polling peers stop waiting
                        # and take the work over (their own policy may
                        # still succeed where ours quarantined).
                        self.cache.release_claim(key, nonces[key])
                        released.add(key)
                        results[i] = entry
                        continue
                    result, wall, _ = entry
                    # Persist each record *before* releasing its claim:
                    # a peer polling this key must never see the claim
                    # vanish while the record is still missing, or it
                    # would conclude we died and re-run the config.
                    persisted = True
                    try:
                        self.cache.put(configs[i], result, wall_seconds=wall)
                    except OSError as error:
                        persisted = False
                        self._cache_degraded(error)
                    self.cache.release_claim(key, nonces[key])
                    released.add(key)
                    results[i] = (result, wall, persisted)
            finally:
                # On an execution error the unfinished claims are
                # dropped (no record): peers take the work over.  Only
                # claims still held are released — an unconditional
                # re-release here could delete a *new* peer's claim
                # for a key we already released above (the nonce check
                # guards the same race at the file level).
                for i in owned:
                    if keys[i] not in released:
                        self.cache.release_claim(keys[i], nonces[keys[i]])

        # Poll for the configs a peer is computing.  A key whose claim
        # vanished without a record runs locally at once; the rest are
        # still polled.  Correctness first: everything left at the
        # deadline is run locally.
        deadline = time.monotonic() + CLAIM_TTL
        pending = deferred
        while pending:
            local, still_pending = [], []
            for i in pending:
                # Claim before record: a peer writes its record before
                # releasing its claim, so "no claim, then no record"
                # proves the claim went without one.
                claimed = self.cache.claim_age(keys[i]) is not None
                result = self.cache.peek(configs[i])
                if result is not None:
                    results[i] = (result, None, False)
                elif claimed and time.monotonic() < deadline:
                    still_pending.append(i)
                else:
                    local.append(i)
            pending = still_pending
            if local:
                computed = self._execute_batch([configs[i] for i in local])
                for i, entry in zip(local, computed):
                    results[i] = entry
            elif pending:
                time.sleep(CLAIM_POLL)
        return results  # type: ignore[return-value]

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
    @property
    def cache_stats(self) -> Optional[CacheStats]:
        """Disk-cache accounting (None when no cache is configured)."""
        return self.cache.stats if self.cache is not None else None

    def cached_runs(self) -> int:
        """Distinct results currently held in the in-process memo."""
        return self._memory.finished()

    def __repr__(self) -> str:
        return (
            f"SweepRunner(workers={self.workers}, "
            f"cache={getattr(self.cache, 'root', None)!r}, "
            f"stats={self.stats.as_dict()})"
        )
