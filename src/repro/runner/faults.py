"""Failure records and the fault-injection harness.

Two pieces, both consumed by :class:`~repro.runner.sweep.SweepRunner`:

:class:`RunFailure`
    The structured record of one quarantined config: the cache key,
    display names, the config dict, a failure ``kind``
    (``"exception"`` / ``"timeout"`` / ``"worker-crash"``), the error
    text, and the wall seconds burned.  It flows through sweep reports
    (``"failures"`` section), ``repro sweep`` / ``repro merge`` (exit
    code 3 on partial success), and ``api.sweep(strict=...)``.

:class:`FaultPlan`
    Deterministic fault injection, so every recovery path of the
    runner is testable in CI without flaky process murder.  A plan is
    parsed from a compact spec string — the ``REPRO_FAULT_INJECT``
    environment variable or the ``faults=`` runner argument — and
    threaded explicitly to :func:`~repro.runner.worker.execute_config`
    (the string form crosses the process boundary, so pool workers see
    exactly the parent's plan).

Fault spec grammar
------------------
Semicolon-separated clauses, each ``MODE@BENCHMARK/SCHEME[:PARAMS]``::

    raise@SP/PAE                  # SP/PAE raises
    hang@MT/BASE:seconds=60       # MT/BASE sleeps 60s (parent times out)
    exit@HS/*:code=137            # any HS run kills its worker (OOM-like)
    corrupt@SP/PM                 # SP/PM's cache writes are garbage
    cacheio@*/PM                  # every PM cache write raises OSError

Either side of the target may be ``*``.  A clause fires on every run
(or cache write) of a matching config: a run is a pure function of its
config, so a fault injected into it is permanent, and the runner
quarantines a config on its first failure.  Re-running a faulted sweep
reproduces it exactly.

Injection sites: ``raise`` / ``hang`` / ``exit`` trigger in the worker
just before the simulation executes; ``corrupt`` / ``cacheio`` trigger
in :meth:`~repro.runner.cache.ResultCache.put` in whichever process
writes the record.  Injection never alters *what* is computed, only
whether a run survives: every other config's result is byte-identical
to a fault-free sweep.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = [
    "FAULT_ENV_VAR",
    "FaultPlan",
    "FaultSpecError",
    "InjectedFault",
    "RunFailure",
    "SweepFailure",
]

FAULT_ENV_VAR = "REPRO_FAULT_INJECT"


class InjectedFault(RuntimeError):
    """The exception a ``raise`` fault clause throws inside a worker."""


class FaultSpecError(ValueError):
    """A fault-injection spec string could not be parsed."""


@dataclass(frozen=True)
class RunFailure:
    """One quarantined config: everything a report needs to explain it."""

    key: str
    benchmark: str
    scheme: str
    config: Dict[str, object]
    kind: str  # "exception" | "timeout" | "worker-crash"
    error: str
    wall_seconds: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "key": self.key,
            "benchmark": self.benchmark,
            "scheme": self.scheme,
            "config": self.config,
            "kind": self.kind,
            "error": self.error,
            "wall_seconds": round(float(self.wall_seconds), 6),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunFailure":
        return cls(
            key=str(data["key"]),
            benchmark=str(data["benchmark"]),
            scheme=str(data["scheme"]),
            config=dict(data["config"]),
            kind=str(data["kind"]),
            error=str(data["error"]),
            wall_seconds=float(data["wall_seconds"]),
        )

    def describe(self) -> str:
        return f"{self.benchmark}/{self.scheme} [{self.kind}]: {self.error}"


class SweepFailure(RuntimeError):
    """Raised by strict sweeps when any config was quarantined.

    Carries the full :class:`RunFailure` list so callers can inspect
    (or report) exactly what was lost; every *healthy* config still
    completed before this is raised — fail-at-the-end, not fail-fast.
    """

    def __init__(self, failures: List[RunFailure]) -> None:
        self.failures = list(failures)
        lines = "; ".join(f.describe() for f in self.failures[:4])
        more = len(self.failures) - 4
        if more > 0:
            lines += f"; ... and {more} more"
        super().__init__(
            f"{len(self.failures)} config(s) failed permanently: {lines}"
        )


_MODES = ("raise", "hang", "exit", "corrupt", "cacheio")


@dataclass(frozen=True)
class FaultClause:
    """One parsed clause of a fault spec (see module docstring)."""

    mode: str
    benchmark: Optional[str] = None  # None = any ('*')
    scheme: Optional[str] = None
    seconds: float = 600.0  # hang duration
    code: int = 137  # exit status

    def triggers(self, benchmark: str, scheme: str) -> bool:
        """Does this clause fire for runs of this config?"""
        return (
            self.benchmark in (None, benchmark)
            and self.scheme in (None, scheme)
        )


def _parse_clause(text: str) -> FaultClause:
    head, sep, target = text.partition("@")
    mode = head.strip().lower()
    if not sep or mode not in _MODES:
        raise FaultSpecError(
            f"bad fault clause {text!r}: expected MODE@TARGET[:PARAMS] with "
            f"MODE one of {', '.join(_MODES)}"
        )
    target, _, param_text = target.partition(":")
    bench, sep, scheme = target.strip().partition("/")
    if not sep:
        raise FaultSpecError(
            f"bad fault target {target.strip()!r} in {text!r}: expected "
            f"BENCHMARK/SCHEME (either may be '*')"
        )
    kwargs: Dict[str, object] = {
        "mode": mode,
        "benchmark": None if bench.strip() == "*" else bench.strip().upper(),
        "scheme": None if scheme.strip() == "*" else scheme.strip().upper(),
    }
    for chunk in param_text.split(",") if param_text else ():
        name, _, value = chunk.partition("=")
        name = name.strip().lower()
        if name not in ("seconds", "code"):
            raise FaultSpecError(f"unknown fault parameter {name!r} in {text!r}")
        try:
            kwargs[name] = float(value) if name == "seconds" else int(value)
        except ValueError:
            raise FaultSpecError(
                f"bad fault parameter {chunk!r} in {text!r}"
            ) from None
    return FaultClause(**kwargs)  # type: ignore[arg-type]


@dataclass(frozen=True)
class FaultPlan:
    """A parsed, deterministic fault-injection plan.

    ``spec`` round-trips: it is the exact string the plan was parsed
    from, which is how the plan crosses the process boundary to pool
    workers (objects cannot — they would need the worker to share the
    parent's memory).
    """

    spec: str
    clauses: tuple = field(default=())

    @classmethod
    def parse(cls, spec: Optional[str]) -> Optional["FaultPlan"]:
        """Parse a spec string; ``None`` / blank specs mean no plan."""
        if spec is None:
            return None
        if isinstance(spec, FaultPlan):
            return spec
        spec = spec.strip()
        if not spec:
            return None
        clauses = tuple(
            _parse_clause(chunk.strip())
            for chunk in spec.split(";")
            if chunk.strip()
        )
        if not clauses:
            return None
        return cls(spec=spec, clauses=clauses)

    @classmethod
    def from_env(cls) -> Optional["FaultPlan"]:
        """The plan named by ``$REPRO_FAULT_INJECT``, or None."""
        return cls.parse(os.environ.get(FAULT_ENV_VAR))

    # -- worker-side execution faults -----------------------------------
    def apply(self, benchmark: str, scheme: str, allow_exit: bool = True) -> None:
        """Trigger the first matching execution fault, if any.

        Called just before a config is simulated.  ``raise`` throws
        :class:`InjectedFault`; ``hang`` sleeps (the parent's timeout
        is what ends it); ``exit`` kills the process like the OOM
        killer would.  With ``allow_exit=False`` (inline execution in
        the parent process) ``exit`` degrades to ``raise`` — killing
        the orchestrating process would be self-defeating.
        """
        for clause in self.clauses:
            if clause.mode in ("corrupt", "cacheio"):
                continue
            if not clause.triggers(benchmark, scheme):
                continue
            if clause.mode == "hang":
                time.sleep(clause.seconds)
                return
            if clause.mode == "exit" and allow_exit:
                os._exit(clause.code)
            raise InjectedFault(
                f"injected {clause.mode} fault: {benchmark}/{scheme}"
            )

    # -- cache-side faults ----------------------------------------------
    def cache_fault(self, benchmark: str, scheme: str) -> Optional[str]:
        """``"corrupt"`` / ``"cacheio"`` for this config's record
        writes, else None."""
        for clause in self.clauses:
            if clause.mode not in ("corrupt", "cacheio"):
                continue
            if clause.triggers(benchmark, scheme):
                return clause.mode
        return None
