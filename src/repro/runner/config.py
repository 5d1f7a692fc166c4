"""Run configurations and the sweep grid.

A :class:`RunConfig` pins *everything* that determines one simulation's
outcome: the workload, the mapping scheme (and its BIM seed), the SM
count, the memory technology, the trace scale, and the entropy-window
parameters the RMP scheme derives its bit choice from.  Because the
simulator is fully deterministic, two equal configs always produce the
same :class:`~repro.sim.results.SimulationResult` — which is what makes
the content-addressed result cache sound.

Workloads and schemes are held as :class:`~repro.specs.WorkloadSpec` /
:class:`~repro.specs.SchemeSpec` — the serializable open-world forms —
so a custom BIM, stage pipeline, pattern recipe or trace file flows
through the cache/shard/merge machinery exactly like a built-in
name.  Plain registered names serialize as bare strings in
:meth:`RunConfig.to_dict`, keeping built-in cache keys byte-identical
to the pre-spec format (no cache invalidation, no report churn).

Bare registered names normalize to specs wherever a spec is accepted,
so ``RunConfig("MT", "PAE")`` equals the spec form.

:class:`SweepGrid` expands the cross product (benchmarks x schemes x
seeds x SM counts x memories) into a deterministically ordered list of
configs, always including the BASE baseline each derived metric
normalizes against.  :meth:`SweepGrid.from_dict` is the one parser of
grid documents: ``repro sweep --spec`` files, ``POST /v1/sweeps``
bodies, the dicts :mod:`repro.api` takes and the grid a shard report
embeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..core.schemes import SCHEME_NAMES
from ..core.serialize import stable_hash
from ..registry import MEMORY_NAMES, RegistryError, memory_config
from ..sim.fidelity import EXACT, fidelity_to_json, parse_fidelity
from ..specs import SchemeSpec, SpecError, WorkloadSpec, integer, real
from ..workloads.suite import VALLEY_BENCHMARKS

__all__ = ["RunConfig", "SweepGrid", "CACHE_SCHEMA_VERSION"]

# Salt mixed into every config hash.  Bump this whenever a change to
# the simulator alters what a given configuration computes (timing
# model, scheduler behaviour, workload builders, ...): old cache
# records then miss instead of serving stale numbers.
# v2: batched warp-issue engine (per-SM issue ticks + calendar event
# queue) changed event interleaving, shifting figure tables slightly.
CACHE_SCHEMA_VERSION = 2

# The list axes of a grid document, and the tag older spec files carry.
_LIST_AXES = ("benchmarks", "schemes", "seeds", "n_sms", "memories")
_LEGACY_TYPE = "scenario_spec"


def _float(value, what: str) -> float:
    """A real *value* (see :func:`~repro.specs.real`) as a ``float``.

    So ``1`` and ``1.0`` serialize, and hash, alike.  An int too large
    for a float is refused like ``inf``.
    """
    try:
        return float(real(value, what))
    except OverflowError:
        raise ValueError(
            f"{what} must be positive and finite, got an int too large "
            f"for a float"
        ) from None


def _validate_memory(memory: str) -> str:
    memory = str(memory).strip().lower()
    if memory not in MEMORY_NAMES:
        raise ValueError(
            f"unknown memory kind {memory!r}; memory kinds: {MEMORY_NAMES}"
        )
    return memory


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines one simulation run.

    ``benchmark`` and ``scheme`` are specs (bare names and dicts are
    normalized through ``from_value``); ``benchmark_name`` /
    ``scheme_name`` give the display names.  ``profile_scale`` is the
    trace scale the RMP scheme's suite-average entropy profile is
    computed at; it matters only for RMP but is part of every config so
    the hash never depends on scheme-specific logic.
    """

    benchmark: WorkloadSpec
    scheme: SchemeSpec
    seed: int = 0
    n_sms: int = 12
    memory: str = "gddr5"
    scale: float = 1.0
    window: int = 12
    profile_scale: Optional[float] = None
    fidelity: object = EXACT

    def __post_init__(self) -> None:
        object.__setattr__(self, "fidelity", parse_fidelity(self.fidelity))
        benchmark = WorkloadSpec.from_value(self.benchmark)
        scheme = SchemeSpec.from_value(self.scheme)
        object.__setattr__(self, "benchmark", benchmark)
        object.__setattr__(self, "scheme", scheme)
        object.__setattr__(self, "memory", _validate_memory(self.memory))
        if self.profile_scale is None:
            object.__setattr__(self, "profile_scale", self.scale)
        # Registered names must resolve now, not at execution time.
        try:
            if benchmark.kind == "registered":
                from ..registry import workload_entry

                workload_entry(benchmark.name)
            if scheme.kind == "registered":
                from ..registry import scheme_entry

                scheme_entry(scheme.name)
        except RegistryError as error:
            raise ValueError(str(error)) from None
        for name in ("seed", "n_sms", "window"):
            object.__setattr__(self, name, integer(getattr(self, name), name))
        for name in ("scale", "profile_scale"):
            object.__setattr__(self, name, _float(getattr(self, name), name))
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.n_sms <= 0:
            raise ValueError(f"n_sms must be positive, got {self.n_sms}")
        # ``not 0 < x`` also rejects NaN, which fails every comparison.
        if not (0 < self.scale < math.inf
                and 0 < self.profile_scale < math.inf):
            raise ValueError(
                f"scale and profile_scale must be positive and finite, got "
                f"{self.scale!r} and {self.profile_scale!r}"
            )
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if scheme.kind != "registered":
            # A literal matrix's width and a pipeline's bit ranges, block
            # bits and invertibility depend on the memory's address map:
            # reject a bad spec before any run.
            scheme.build(memory_config(self.memory).address_map)

    # -- display ---------------------------------------------------------
    @property
    def benchmark_name(self) -> str:
        """Display name of the workload (report keys, sidecars, logs)."""
        return self.benchmark.name

    @property
    def scheme_name(self) -> str:
        """Display name of the mapping scheme."""
        return self.scheme.name

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dict; round-trips through :meth:`from_dict`.

        Plain registered specs collapse to bare name strings, so the
        dict (and everything derived from it: cache records, reports,
        worker payloads) is byte-identical to the pre-spec format for
        built-in scenarios.
        """
        data = {
            "benchmark": self.benchmark.compact(),
            "scheme": self.scheme.compact(),
            "seed": self.seed,
            "n_sms": self.n_sms,
            "memory": self.memory,
            "scale": self.scale,
            "window": self.window,
            "profile_scale": self.profile_scale,
        }
        # The exact default is *omitted* (not serialized as "exact"),
        # keeping every pre-fidelity dict — and therefore every
        # built-in cache key — byte-identical.  Auto configs carry the
        # parameter dict and hash to distinct keys, so auto and exact
        # records never collide.
        if self.fidelity != EXACT:
            data["fidelity"] = fidelity_to_json(self.fidelity)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunConfig":
        return cls(
            benchmark=WorkloadSpec.from_value(data["benchmark"]),
            scheme=SchemeSpec.from_value(data["scheme"]),
            seed=data["seed"],
            n_sms=data["n_sms"],
            memory=str(data["memory"]),
            scale=data["scale"],
            window=data["window"],
            profile_scale=data["profile_scale"],
            fidelity=data.get("fidelity", EXACT),
        )

    def config_hash(self) -> str:
        """Stable content hash: the on-disk cache key for this run.

        Mixes in :data:`CACHE_SCHEMA_VERSION` so simulator changes
        invalidate old records wholesale.  Specs contribute their
        *identity* form — e.g. a trace workload hashes its file's
        SHA-256, not its path — so equivalent scenarios share records.
        """
        payload = self.to_dict()
        payload["benchmark"] = self.benchmark.identity()
        payload["scheme"] = self.scheme.identity()
        payload["__schema__"] = CACHE_SCHEMA_VERSION
        return stable_hash(payload)

    def baseline(self) -> "RunConfig":
        """The BASE run this config's speedup / perf-per-watt is measured against."""
        return replace(self, scheme=SchemeSpec.registered("BASE"))


def unique_names(specs, axis: str) -> None:
    """Reject two *different* specs sharing one display name.

    Report tables, ``api.run_matrix`` results and baseline lookups are
    keyed by name, so a collision would silently overwrite results.
    Exact duplicates are fine (same identity, same records).
    """
    by_name: Dict[str, object] = {}
    for spec in specs:
        other = by_name.setdefault(spec.name, spec)
        if other != spec:
            raise ValueError(
                f"two different {axis} share the name {spec.name!r}; report "
                f"tables are keyed by name, so names must be unique per grid"
            )


@dataclass(frozen=True)
class SweepGrid:
    """A (benchmark x scheme x seed x n_sms x memory) cross product.

    Benchmark and scheme axes accept names, spec dicts or spec objects
    (normalized to specs).  ``configs()`` yields the grid in a fixed,
    documented order — benchmarks outermost, then schemes, seeds, SM
    counts, memories — so sweep reports are reproducible independent of
    how the runs were scheduled across workers.
    """

    benchmarks: Tuple[Union[str, WorkloadSpec], ...] = VALLEY_BENCHMARKS
    schemes: Tuple[Union[str, SchemeSpec], ...] = SCHEME_NAMES
    seeds: Tuple[int, ...] = (0,)
    n_sms: Tuple[int, ...] = (12,)
    memories: Tuple[str, ...] = ("gddr5",)
    scale: float = 1.0
    window: int = 12
    fidelity: object = EXACT

    def __post_init__(self) -> None:
        object.__setattr__(self, "fidelity", parse_fidelity(self.fidelity))
        for name in ("benchmarks", "schemes", "seeds", "n_sms", "memories"):
            if not getattr(self, name):
                raise ValueError(f"sweep grid needs at least one entry in {name!r}")
        object.__setattr__(self, "benchmarks", tuple(
            WorkloadSpec.from_value(b) for b in self.benchmarks
        ))
        object.__setattr__(self, "schemes", tuple(
            SchemeSpec.from_value(s) for s in self.schemes
        ))
        object.__setattr__(self, "seeds", tuple(
            integer(s, "seed") for s in self.seeds
        ))
        object.__setattr__(self, "n_sms", tuple(
            integer(n, "n_sms") for n in self.n_sms
        ))
        object.__setattr__(self, "window", integer(self.window, "window"))
        object.__setattr__(self, "scale", _float(self.scale, "scale"))
        object.__setattr__(self, "memories", tuple(
            str(m).lower() for m in self.memories
        ))
        unique_names(self.benchmarks, "benchmarks")
        # Validate over run_schemes, not the raw axis: it includes the
        # auto-inserted BASE baseline, so a *custom* spec named "BASE"
        # collides here instead of silently corrupting report tables.
        unique_names(self.run_schemes, "schemes")

    @property
    def run_schemes(self) -> Tuple[SchemeSpec, ...]:
        """Schemes actually simulated: the requested ones plus BASE."""
        base = SchemeSpec.registered("BASE")
        if base in self.schemes:
            return self.schemes
        return (base,) + self.schemes

    def configs(self) -> List[RunConfig]:
        """The full grid as an ordered list of run configurations."""
        return list(self._iter_configs())

    def _iter_configs(self) -> Iterator[RunConfig]:
        for benchmark in self.benchmarks:
            for scheme in self.run_schemes:
                for seed in self.seeds:
                    for n_sms in self.n_sms:
                        for memory in self.memories:
                            yield RunConfig(
                                benchmark=benchmark,
                                scheme=scheme,
                                seed=seed,
                                n_sms=n_sms,
                                memory=memory,
                                scale=self.scale,
                                window=self.window,
                                fidelity=self.fidelity,
                            )

    def to_dict(self) -> Dict[str, object]:
        data = {
            "benchmarks": [b.compact() for b in self.benchmarks],
            "schemes": [s.compact() for s in self.schemes],
            "seeds": list(self.seeds),
            "n_sms": list(self.n_sms),
            "memories": list(self.memories),
            "scale": self.scale,
            "window": self.window,
        }
        if self.fidelity != EXACT:  # exact omitted: pre-fidelity byte-parity
            data["fidelity"] = fidelity_to_json(self.fidelity)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SweepGrid":
        """Parse a grid document; every rejection is a :class:`SpecError`.

        ``benchmarks`` and ``schemes`` are required; the other axes
        default as the constructor's do.  List axes must be lists,
        ``scale`` a real number (stored as a float), and any key but
        the eight axes and an older spec file's ``"type":
        "scenario_spec"`` tag is refused rather than ignored.
        Round-trips :meth:`to_dict` exactly, so ``repro merge``
        re-expands the grid a shard report was cut from in a
        single-machine sweep's config order.
        """
        if not isinstance(data, dict):
            raise SpecError(
                f"a sweep grid must be a JSON object, got {type(data).__name__}"
            )
        axes: Dict[str, object] = {}
        for key, value in data.items():
            if key in _LIST_AXES:
                if not isinstance(value, (list, tuple)):
                    raise SpecError(f"grid {key!r} must be a list, got {value!r}")
                axes[key] = tuple(value)
            elif key in ("scale", "window", "fidelity"):
                axes[key] = value
            elif key != "type":
                raise SpecError(f"unknown sweep grid key {key!r}")
            elif value != _LEGACY_TYPE:
                raise SpecError(f"not a sweep grid: type={value!r}")
        for key in ("benchmarks", "schemes"):
            if key not in axes:
                raise SpecError(f"a sweep grid is missing the required {key!r} field")
        try:
            return cls(**axes)
        except (TypeError, ValueError, OverflowError) as error:
            raise SpecError(str(error)) from None
