"""Open registries for mapping schemes, workloads and memory configs.

The paper's central claim is that *any* invertible GF(2) address
mapping can be evaluated for entropy and power — so the pipeline must
not be limited to the six schemes and sixteen benchmarks it ships
with.  This module is the extension point: three process-wide
registries map names to builder callables, and the built-ins are just
the pre-registered entries (:mod:`repro.core.schemes` and
:mod:`repro.workloads.suite` register themselves on import).

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
* memory builders take no arguments and return a
  :class:`MemoryConfig`; results are memoized per process (hardware
  descriptions are immutable).

Plugins
-------
:func:`load_entry_point` imports ``pkg.module`` or ``pkg.module:attr``
and registers what it finds — the CLI's ``--register`` flag routes
here.  The ``REPRO_PLUGINS`` environment variable (comma-separated
entry points) is loaded lazily before the
first registry lookup, which is how sweep *worker processes* see the
same user-registered entries as the parent: the CLI exports the flag's
value into the environment the pool inherits.

A decorator applied in the driving process does **not** cross process
boundaries on its own: pool workers re-validate configs by name, so a
scheme registered only in-process works with ``workers=1`` (and, by
accident of ``fork``, on Linux) but fails on spawn-based platforms.
For multi-process sweeps, put the builder in an importable module and
name it via ``--register`` / ``REPRO_PLUGINS`` — or use a
self-describing :mod:`repro.specs` spec, which carries its full
content through the worker payload and needs no registration at all.

Registered **names** are the unit of cache identity: a
:class:`~repro.runner.config.RunConfig` naming a registered scheme
hashes the name (plus seed/params), not the builder's output.  Two
different builders registered under one name in different processes
would silently share cache records — don't do that.  Fully
self-describing alternatives (a serialized BIM, a stage pipeline, a
pattern recipe) live in :mod:`repro.specs` and hash their content.
"""

from __future__ import annotations

import importlib
import inspect
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

__all__ = [
    "MemoryConfig",
    "RegistryError",
    "SchemeEntry",
    "WorkloadEntry",
    "MemoryEntry",
    "register_scheme",
    "register_workload",
    "register_memory",
    "scheme_names",
    "workload_names",
    "memory_names",
    "scheme_entry",
    "workload_entry",
    "memory_entry",
    "make_scheme",
    "make_workload",
    "memory_config",
    "load_entry_point",
    "load_plugins",
    "PLUGIN_ENV_VAR",
]

PLUGIN_ENV_VAR = "REPRO_PLUGINS"


class RegistryError(ValueError):
    """Raised on unknown names, duplicate registrations or bad plugins."""


@dataclass(frozen=True)
class SchemeEntry:
    """One registered mapping-scheme builder."""

    name: str
    builder: Callable
    needs_entropy_profile: bool = False
    origin: str = "user"
    doc: str = ""


@dataclass(frozen=True)
class WorkloadEntry:
    """One registered workload builder."""

    name: str
    builder: Callable
    origin: str = "user"
    doc: str = ""


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


@dataclass(frozen=True)
class MemoryEntry:
    """One registered memory-technology builder."""

    name: str
    builder: Callable
    origin: str = "user"
    doc: str = ""


_SCHEMES: Dict[str, SchemeEntry] = {}
_WORKLOADS: Dict[str, WorkloadEntry] = {}
_MEMORY_BUILDERS: Dict[str, MemoryEntry] = {}
_MEMORY_CACHE: Dict[str, MemoryConfig] = {}
_LOADED_PLUGINS: set = set()
_BUILTINS_LOADED = False


def _ensure_ready() -> None:
    """Register built-ins and environment plugins (idempotent, lazy).

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
        _register_builtin_memories()
    env = os.environ.get(PLUGIN_ENV_VAR, "").strip()
    if env:
        load_plugins(env)


def _register_builtin_memories() -> None:
    def _gddr5() -> MemoryConfig:
        from .core.address_map import hynix_gddr5_map
        from .dram.timing import gddr5_timing

        return MemoryConfig("gddr5", hynix_gddr5_map(), gddr5_timing(), None)

    def _stacked() -> MemoryConfig:
        from .dram.stacked import stacked_memory_config

        return stacked_memory_config()

    register_memory("gddr5", origin="builtin")(_gddr5)
    register_memory("stacked", origin="builtin")(_stacked)


# ----------------------------------------------------------------------
# Registration decorators
# ----------------------------------------------------------------------
def _register(
    table: Dict, make_entry: Callable, kind: str, name: Optional[str],
    replace: bool,
) -> Callable:
    def decorator(fn: Callable) -> Callable:
        key = (name or fn.__name__).strip().upper() if kind != "memory" else (
            (name or fn.__name__).strip().lower()
        )
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
        lambda key, fn: SchemeEntry(
            key, fn, needs_entropy_profile, origin, (fn.__doc__ or "").strip()
        ),
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
        lambda key, fn: WorkloadEntry(key, fn, origin, (fn.__doc__ or "").strip()),
        "workload",
        name,
        replace,
    )


def register_memory(
    name: Optional[str] = None, *, replace: bool = False, origin: str = "user"
) -> Callable:
    """Decorator: register a memory-technology builder under *name*."""
    def decorator(fn: Callable) -> Callable:
        _register(
            _MEMORY_BUILDERS,
            lambda key, f: MemoryEntry(key, f, origin, (f.__doc__ or "").strip()),
            "memory",
            name,
            replace,
        )(fn)
        _MEMORY_CACHE.pop((name or fn.__name__).strip().lower(), None)
        return fn

    return decorator


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


def memory_names() -> Tuple[str, ...]:
    """All registered memory-technology names."""
    _ensure_ready()
    return tuple(_MEMORY_BUILDERS)


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


def memory_entry(name: str) -> MemoryEntry:
    _ensure_ready()
    key = name.strip().lower()
    try:
        return _MEMORY_BUILDERS[key]
    except KeyError:
        raise RegistryError(
            f"unknown memory kind {name!r}; registered memories: "
            f"{tuple(_MEMORY_BUILDERS)}"
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
    """The (memoized) :class:`MemoryConfig` registered under *name*."""
    key = name.strip().lower()
    if key not in _MEMORY_CACHE:
        config = memory_entry(key).builder()
        if not isinstance(config, MemoryConfig):
            raise RegistryError(
                f"memory builder {key!r} returned {type(config).__name__}, "
                f"expected MemoryConfig"
            )
        _MEMORY_CACHE[key] = config
    return _MEMORY_CACHE[key]


# ----------------------------------------------------------------------
# Plugins
# ----------------------------------------------------------------------
def load_entry_point(spec: str) -> None:
    """Import and register the plugin *spec* (``pkg.module[:attr]``).

    Importing the module runs any ``@register_*`` decorators in it.
    When ``:attr`` names a callable that the import did not already
    register, it is registered under its function name, classified by
    its signature: a first parameter called ``address_map`` makes it a
    **scheme** builder, a ``scale`` parameter makes it a **workload**
    builder; anything else must self-register with the decorators.
    """
    spec = spec.strip()
    if not spec:
        return
    module_name, _, attr = spec.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError as error:
        raise RegistryError(f"cannot import plugin {spec!r}: {error}") from None
    if not attr:
        return
    try:
        fn = getattr(module, attr)
    except AttributeError:
        raise RegistryError(
            f"plugin module {module_name!r} has no attribute {attr!r}"
        ) from None
    if not callable(fn):
        raise RegistryError(f"plugin attribute {spec!r} is not callable")
    already = any(
        entry.builder is fn
        for table in (_SCHEMES, _WORKLOADS, _MEMORY_BUILDERS)
        for entry in table.values()
    )
    if already:
        return
    # No replace: names are cache identity, so a plugin function that
    # happens to be called e.g. `pae` must not silently shadow the
    # built-in (it would serve the built-in's cached records).
    try:
        parameters = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        parameters = []
    if parameters and parameters[0] == "address_map":
        register_scheme(fn.__name__)(fn)
    elif "scale" in parameters:
        register_workload(fn.__name__)(fn)
    else:
        raise RegistryError(
            f"cannot classify plugin {spec!r}: scheme builders take "
            f"'address_map' first, workload builders take 'scale'; or "
            f"have the module self-register with @register_scheme / "
            f"@register_workload"
        )


def load_plugins(specs: str) -> None:
    """Load every entry point in a comma-separated list (idempotent).

    Commas only — ``:`` is the module/attribute separator inside one
    entry point, so a pathsep split would tear entries apart.
    """
    for chunk in specs.split(","):
        chunk = chunk.strip()
        if chunk and chunk not in _LOADED_PLUGINS:
            # Mark as loaded only on success, so a transient import
            # failure is retried (and keeps its real error message)
            # rather than decaying into "unknown scheme" later.
            load_entry_point(chunk)
            _LOADED_PLUGINS.add(chunk)
