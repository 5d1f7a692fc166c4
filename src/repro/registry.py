"""Registries for mapping schemes and workloads, and the memory kinds.

The paper's central claim is that *any* invertible GF(2) address
mapping can be evaluated for entropy and power — so the pipeline must
not be limited to the six schemes and sixteen benchmarks it ships
with.  Two process-wide registries map names to builder callables,
and the built-ins are just the pre-registered entries
(:mod:`repro.core.schemes` and :mod:`repro.workloads.suite` register
themselves on import).

Registering your own entries::

    from repro.registry import register_scheme, register_workload

    @register_scheme("MYXOR")
    def myxor(address_map, seed=0, entropy_by_bit=None):
        ...
        return MappingScheme(...)

    @register_workload("MYBENCH")
    def mybench(scale=1.0):
        return Workload(...)

Builder signatures
------------------
* scheme builders are called as ``fn(address_map, seed=...,
  entropy_by_bit=..., **params)``; keyword arguments the function does
  not accept are silently dropped, so ``fn(address_map)`` is a valid
  builder for a deterministic scheme.  Pass
  ``needs_entropy_profile=True`` at registration to receive the
  suite-average entropy profile (what the paper's RMP is built from).
* workload builders are called as ``fn(scale=..., **params)``.

Memory kinds are the two technologies the paper evaluates,
:data:`MEMORY_NAMES`; :func:`memory_config` builds each once per
process (hardware descriptions are immutable).

A decorator applied in the driving process does **not** cross process
boundaries on its own: pool workers re-validate configs by name, so a
scheme registered only in-process works with ``workers=1`` (and, by
accident of ``fork``, on Linux) but fails on spawn-based platforms.
For multi-process sweeps use a self-describing :mod:`repro.specs`
spec, which carries its full content through the worker payload and
needs no registration at all.

Registered **names** are the unit of cache identity: a
:class:`~repro.runner.config.RunConfig` naming a registered scheme
hashes the name (plus seed/params), not the builder's output.  Two
different builders registered under one name in different processes
would silently share cache records — don't do that.  Fully
self-describing alternatives (a serialized BIM, a stage pipeline, a
pattern recipe) live in :mod:`repro.specs` and hash their content.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

__all__ = [
    "MEMORY_NAMES",
    "MemoryConfig",
    "RegistryError",
    "SchemeEntry",
    "WorkloadEntry",
    "register_scheme",
    "register_workload",
    "scheme_names",
    "workload_names",
    "scheme_entry",
    "workload_entry",
    "make_scheme",
    "make_workload",
    "memory_config",
]

MEMORY_NAMES = ("gddr5", "stacked")


class RegistryError(ValueError):
    """Raised on unknown names or duplicate registrations."""


@dataclass(frozen=True)
class SchemeEntry:
    """One registered mapping-scheme builder."""

    name: str
    builder: Callable
    needs_entropy_profile: bool = False
    origin: str = "user"


@dataclass(frozen=True)
class WorkloadEntry:
    """One registered workload builder."""

    name: str
    builder: Callable
    origin: str = "user"


@dataclass(frozen=True)
class MemoryConfig:
    """A memory technology: its address map, timing and power model.

    ``power_params`` of None selects the default GDDR5 power model of
    :mod:`repro.dram.power`.
    """

    name: str
    address_map: object
    timing: object
    power_params: object = None


_SCHEMES: Dict[str, SchemeEntry] = {}
_WORKLOADS: Dict[str, WorkloadEntry] = {}
_MEMORY_CACHE: Dict[str, MemoryConfig] = {}
_BUILTINS_LOADED = False


def _ensure_ready() -> None:
    """Register the built-in schemes and workloads (idempotent, lazy).

    Importing :mod:`repro.core.schemes` / :mod:`repro.workloads.suite`
    runs their registration decorators; doing it lazily here keeps
    this module import-cycle free (it imports nothing from ``repro``
    at module level).
    """
    global _BUILTINS_LOADED
    if not _BUILTINS_LOADED:
        _BUILTINS_LOADED = True
        from . import core  # noqa: F401  (registers the six schemes)
        from . import workloads  # noqa: F401  (registers the Table II suite)


# ----------------------------------------------------------------------
# Registration decorators
# ----------------------------------------------------------------------
def _register(
    table: Dict, make_entry: Callable, kind: str, name: Optional[str],
    replace: bool,
) -> Callable:
    def decorator(fn: Callable) -> Callable:
        key = (name or fn.__name__).strip().upper()
        if not key:
            raise RegistryError(f"{kind} registration needs a non-empty name")
        if key in table and not replace:
            raise RegistryError(
                f"{kind} {key!r} is already registered; pass replace=True to "
                f"override it deliberately"
            )
        table[key] = make_entry(key, fn)
        return fn

    return decorator


def register_scheme(
    name: Optional[str] = None,
    *,
    needs_entropy_profile: bool = False,
    replace: bool = False,
    origin: str = "user",
) -> Callable:
    """Decorator: register a mapping-scheme builder under *name*."""
    return _register(
        _SCHEMES,
        lambda key, fn: SchemeEntry(key, fn, needs_entropy_profile, origin),
        "scheme",
        name,
        replace,
    )


def register_workload(
    name: Optional[str] = None, *, replace: bool = False, origin: str = "user"
) -> Callable:
    """Decorator: register a workload builder under *name*."""
    return _register(
        _WORKLOADS,
        lambda key, fn: WorkloadEntry(key, fn, origin),
        "workload",
        name,
        replace,
    )


# ----------------------------------------------------------------------
# Lookup
# ----------------------------------------------------------------------
def scheme_names() -> Tuple[str, ...]:
    """All registered scheme names, built-ins first (registration order)."""
    _ensure_ready()
    return tuple(_SCHEMES)


def workload_names() -> Tuple[str, ...]:
    """All registered workload names, built-ins first (registration order)."""
    _ensure_ready()
    return tuple(_WORKLOADS)


def scheme_entry(name: str) -> SchemeEntry:
    _ensure_ready()
    key = name.strip().upper()
    try:
        return _SCHEMES[key]
    except KeyError:
        raise RegistryError(
            f"unknown scheme {name!r}; registered schemes: {tuple(_SCHEMES)}"
        ) from None


def workload_entry(name: str) -> WorkloadEntry:
    _ensure_ready()
    key = name.strip().upper()
    try:
        return _WORKLOADS[key]
    except KeyError:
        raise RegistryError(
            f"unknown benchmark {name!r}; registered workloads: {tuple(_WORKLOADS)}"
        ) from None


def _call_builder(fn: Callable, args, infra: Dict, params: Dict, what: str):
    """Call a builder, dropping unsupported *infra* kwargs only.

    Infra kwargs (seed / entropy_by_bit / scale) are conveniences every
    builder may ignore.  User *params* are part of the spec's cache
    identity, so an unknown one is an error — silently dropping it
    would cache stock results under a parameterized key.
    """
    try:
        signature = inspect.signature(fn)
    except (TypeError, ValueError):
        return fn(*args, **infra, **params)
    if any(
        p.kind is inspect.Parameter.VAR_KEYWORD
        for p in signature.parameters.values()
    ):
        return fn(*args, **infra, **params)
    allowed = set(signature.parameters)
    unknown = sorted(k for k in params if k not in allowed)
    if unknown:
        raise RegistryError(
            f"{what} builder {getattr(fn, '__name__', fn)!r} does not "
            f"accept parameter(s) {unknown}; accepted: {sorted(allowed)}"
        )
    kept = {k: v for k, v in infra.items() if k in allowed}
    return fn(*args, **kept, **params)


def make_scheme(
    name: str,
    address_map,
    seed: int = 0,
    entropy_by_bit=None,
    **params,
):
    """Build the registered scheme *name* against *address_map*.

    ``seed`` and ``entropy_by_bit`` are forwarded only when the
    builder's signature accepts them, so simple deterministic builders
    need not declare either.  Unknown *params* raise
    :class:`RegistryError` (they would otherwise silently change the
    cache key without changing the result).
    """
    entry = scheme_entry(name)
    return _call_builder(
        entry.builder, (address_map,),
        {"seed": seed, "entropy_by_bit": entropy_by_bit}, params, "scheme",
    )


def make_workload(name: str, scale: float = 1.0, **params):
    """Build the registered workload *name* at trace scale *scale*.

    Unknown *params* raise :class:`RegistryError`.
    """
    entry = workload_entry(name)
    return _call_builder(entry.builder, (), {"scale": scale}, params, "workload")


def memory_config(name: str) -> MemoryConfig:
    """The (memoized) :class:`MemoryConfig` of memory kind *name*."""
    key = name.strip().lower()
    config = _MEMORY_CACHE.get(key)
    if config is None:
        if key == "gddr5":
            from .core.address_map import hynix_gddr5_map
            from .dram.timing import gddr5_timing

            config = MemoryConfig("gddr5", hynix_gddr5_map(), gddr5_timing())
        elif key == "stacked":
            from .dram.stacked import stacked_memory_config

            config = stacked_memory_config()
        else:
            raise RegistryError(
                f"unknown memory kind {name!r}; memory kinds: {MEMORY_NAMES}"
            )
        _MEMORY_CACHE[key] = config
    return config
