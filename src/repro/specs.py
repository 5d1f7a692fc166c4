"""Serializable scenario specifications.

This module is the self-describing half of the open config surface
(:mod:`repro.registry` is the name-based half): a spec is a small
frozen dataclass with a canonical-JSON representation, so it can live
in a file, travel through ``RunConfig.to_dict()`` / worker pickles /
shard reports, and derive the content-addressed cache key — custom
scenarios cache, shard and merge exactly like built-ins.

* :class:`SchemeSpec` — a mapping scheme: a **registered** name (with
  optional builder params), a literal **bim** matrix (the
  :mod:`repro.core.serialize` row format), or a **stages** pipeline of
  XOR / swap / permutation stages composed over GF(2).
* :class:`WorkloadSpec` — a workload: a **registered** benchmark, a
  synthetic **pattern** recipe (:mod:`repro.workloads.recipes`), or an
  on-disk **trace** file (:mod:`repro.workloads.io`), content-addressed
  by its SHA-256 so the cache key survives moving the file.

Every spec offers ``to_dict`` / ``from_dict`` (exact round trip),
``compact()`` (the form embedded in configs and reports — a plain name
string for plain registered entries, keeping built-in cache keys
byte-stable), ``identity()`` (the form hashed into the cache key), and
``build(...)``.  ``from_value`` accepts a spec, a name string, or a
dict, so every API boundary can normalize uniformly.

A whole sweep grid is a :class:`~repro.runner.config.SweepGrid`, whose
``from_dict`` parses grid documents (``repro sweep --spec
scenario.json``); its benchmark and scheme entries may be any form
``from_value`` accepts.
"""

from __future__ import annotations

import hashlib
import json
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from . import registry
from .core import gf2
from .core.bim import BinaryInvertibleMatrix
from .core.schemes import MappingScheme
from .core.serialize import canonical_json, pack_rows, stable_hash, unpack_rows

__all__ = [
    "SchemeSpec",
    "WorkloadSpec",
    "SpecError",
    "SCHEME_SPEC_TYPE",
    "WORKLOAD_SPEC_TYPE",
]

SCHEME_SPEC_TYPE = "scheme_spec"
WORKLOAD_SPEC_TYPE = "workload_spec"

_SCHEME_KINDS = ("registered", "bim", "stages")
_WORKLOAD_KINDS = ("registered", "pattern", "trace")


class SpecError(ValueError):
    """Raised when a spec is structurally invalid or cannot build."""


# Params a registered spec may NOT carry: the envelope keys (they would
# clobber to_dict round-trips) and the infra kwargs that belong on the
# RunConfig axes (seed/scale) or are computed by the runner
# (entropy_by_bit) — letting a param shadow them would make the same
# name mean two different things in one config.
_RESERVED_PARAMS = frozenset(
    ("type", "kind", "name", "seed", "scale", "entropy_by_bit")
)


def _jsonable(value):
    """Tuples/arrays -> lists so payloads stay canonical-JSON clean."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def _canonical_payload(data: Dict) -> str:
    return canonical_json(_jsonable(data)) if data else ""


def _as_spec_dict(data, what: str) -> Dict:
    if not isinstance(data, dict):
        raise SpecError(
            f"a {what} must be a JSON object, got {type(data).__name__}"
        )
    return data


def integer(value, what: str) -> int:
    """*value* as a plain ``int``, or ValueError naming *what*.

    Python and numpy integers pass; bools, floats and strings do not,
    so a malformed axis value is rejected instead of truncated.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{what} must be an integer, got {value!r}")


def real(value, what: str):
    """*value* unchanged if it is a real number, else ValueError naming *what*.

    Python and numpy integers and floats pass; bools and strings do
    not, so a ``"scale": true`` or ``"0.25"`` is refused, not coerced.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return value
    raise ValueError(f"{what} must be a real number, got {value!r}")


def _check_stage_bits(stage: Dict) -> None:
    """Reject a stage whose bit indices are not integers (SpecError).

    Range and block bits depend on the address map, so
    :meth:`SchemeSpec._compose_stages` checks those.
    """
    op = stage["op"]
    if op == "swap":
        bits = [("swap", stage.get("a")), ("swap", stage.get("b"))]
    else:
        sources = stage.get("sources")
        if not isinstance(sources, list) or not sources:
            raise SpecError(f"{op} stage needs a non-empty 'sources' bit list")
        role = "source" if op == "xor" else "permute"
        bits = [(role, bit) for bit in sources]
        if op == "xor":
            bits.insert(0, ("target", stage.get("target")))
    for role, bit in bits:
        try:
            integer(bit, f"stage {role} bit")
        except ValueError as error:
            raise SpecError(str(error)) from None


def _require(data: Dict, key: str, what: str):
    try:
        return data[key]
    except KeyError:
        raise SpecError(f"{what} is missing the required {key!r} field") from None


@dataclass(frozen=True)
class _Spec:
    """Shared shape: a kind tag, a display name, a canonical payload."""

    kind: str
    name: str
    payload: str = ""

    _TYPE: ClassVar[str] = ""      # overridden
    _KINDS: ClassVar[Tuple[str, ...]] = ()

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise SpecError(
                f"{type(self).__name__} kind must be one of {self._KINDS}, "
                f"got {self.kind!r}"
            )
        name = str(self.name).strip().upper()
        if not name:
            raise SpecError(f"{type(self).__name__} needs a non-empty name")
        object.__setattr__(self, "name", name)
        if self.payload:
            try:
                data = json.loads(self.payload)
            except ValueError:
                raise SpecError(
                    f"{type(self).__name__} payload is not valid JSON"
                ) from None
            if not isinstance(data, dict):
                raise SpecError(f"{type(self).__name__} payload must be an object")
            # Re-canonicalize so equal specs are equal objects.
            object.__setattr__(self, "payload", canonical_json(data))
        self._validate()

    def _validate(self) -> None:  # pragma: no cover - overridden
        pass

    @property
    def data(self) -> Dict:
        """The kind-specific payload as a dict (empty when none)."""
        return json.loads(self.payload) if self.payload else {}

    @property
    def is_plain_name(self) -> bool:
        """True for a bare registered name with no extra parameters."""
        return self.kind == "registered" and not self.payload

    def to_dict(self) -> Dict:
        data = {"type": self._TYPE, "kind": self.kind, "name": self.name}
        data.update(self.data)
        return data

    def compact(self) -> Union[str, Dict]:
        """The embedded form: a bare string for plain registered names.

        This keeps ``RunConfig.to_dict()`` (and therefore every cache
        key, record and report) byte-identical to the pre-spec format
        for built-in scenarios.
        """
        return self.name if self.is_plain_name else self.to_dict()

    def identity(self) -> Union[str, Dict]:
        """The form hashed into cache keys (defaults to :meth:`compact`)."""
        return self.compact()

    def spec_hash(self) -> str:
        """Stable content hash of this spec."""
        return stable_hash(_jsonable(self.identity()))

    def __str__(self) -> str:
        return self.name


# ----------------------------------------------------------------------
# SchemeSpec
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SchemeSpec(_Spec):
    """A serializable description of one address-mapping scheme."""

    _TYPE = SCHEME_SPEC_TYPE
    _KINDS = _SCHEME_KINDS

    # -- constructors ---------------------------------------------------
    @classmethod
    def registered(cls, name: str, **params) -> "SchemeSpec":
        """A scheme by registry name, with optional builder params."""
        return cls("registered", name, _canonical_payload(params))

    @classmethod
    def from_rows(
        cls,
        name: str,
        rows: Sequence[str],
        width: int,
        strategy: str = "broad",
        extra_latency_cycles: int = 1,
        metadata: Optional[Dict] = None,
    ) -> "SchemeSpec":
        """A literal BIM given as hex row strings (serialize.py format)."""
        return cls("bim", name, _canonical_payload({
            "width": int(width),
            "rows": [str(r) for r in rows],
            "strategy": str(strategy),
            "extra_latency_cycles": int(extra_latency_cycles),
            "metadata": _jsonable(metadata or {}),
        }))

    @classmethod
    def from_scheme(
        cls, scheme: MappingScheme, name: Optional[str] = None
    ) -> "SchemeSpec":
        """Snapshot a built :class:`MappingScheme` as a literal-BIM spec."""
        return cls.from_rows(
            name or scheme.name,
            pack_rows(scheme.bim.matrix),
            scheme.bim.width,
            strategy=scheme.strategy,
            extra_latency_cycles=scheme.extra_latency_cycles,
            metadata=scheme.metadata,
        )

    @classmethod
    def stages(
        cls,
        name: str,
        stages: Sequence[Dict],
        extra_latency_cycles: int = 1,
    ) -> "SchemeSpec":
        """An XOR/permutation stage pipeline (applied first to last).

        Stage forms::

            {"op": "xor", "target": 8, "sources": [15, 16]}
            {"op": "swap", "a": 8, "b": 20}
            {"op": "permute", "sources": [0, 1, 3, 2, ...]}  # full width

        ``xor`` XORs the listed source bits into the target output bit;
        ``permute``'s ``sources[i]`` is the input bit feeding output
        bit *i*.  Block-offset bits may never be read or moved.
        """
        return cls("stages", name, _canonical_payload({
            "stages": [dict(stage) for stage in stages],
            "extra_latency_cycles": int(extra_latency_cycles),
        }))

    @classmethod
    def from_value(cls, value) -> "SchemeSpec":
        """Normalize a name / spec / dict / MappingScheme to a spec."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls.registered(value)
        if isinstance(value, MappingScheme):
            return cls.from_scheme(value)
        if isinstance(value, dict):
            return cls.from_dict(value)
        raise SpecError(
            f"cannot interpret {type(value).__name__} as a scheme spec"
        )

    @classmethod
    def from_dict(cls, data: Dict) -> "SchemeSpec":
        """Rebuild from :meth:`to_dict` output.

        Also accepts the :mod:`repro.core.serialize` ``mapping_scheme``
        document (what ``repro export-scheme`` writes), converting it
        to a literal-BIM spec — so an exported scheme file is directly
        usable anywhere a spec is.  Structural problems raise
        :class:`SpecError`, never a bare ``KeyError``.
        """
        data = _as_spec_dict(data, "scheme spec")
        kind = data.get("type")
        if kind == "mapping_scheme":
            return cls.from_rows(
                str(_require(data, "name", "a serialized scheme")),
                _require(data, "rows", "a serialized scheme"),
                int(_require(data, "width", "a serialized scheme")),
                strategy=str(data.get("strategy", "broad")),
                extra_latency_cycles=int(data.get("extra_latency_cycles", 1)),
                metadata=dict(data.get("metadata", {})),
            )
        if kind not in (None, SCHEME_SPEC_TYPE):
            raise SpecError(f"not a scheme spec: type={kind!r}")
        payload = {
            k: v for k, v in data.items() if k not in ("type", "kind", "name")
        }
        return cls(
            str(data.get("kind", "registered")),
            str(_require(data, "name", "a scheme spec")),
            _canonical_payload(payload),
        )

    @classmethod
    def from_file(cls, path) -> "SchemeSpec":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))

    # -- validation -----------------------------------------------------
    def _validate(self) -> None:
        data = self.data
        if self.kind == "registered":
            reserved = _RESERVED_PARAMS.intersection(data)
            if reserved:
                raise SpecError(
                    f"registered-scheme params may not use the reserved "
                    f"names {sorted(reserved)}; seed/scale are RunConfig "
                    f"axes, entropy_by_bit is runner-computed"
                )
        elif self.kind == "bim":
            width = data.get("width")
            rows = data.get("rows")
            if not isinstance(width, int) or width <= 0:
                raise SpecError(f"bim spec needs a positive width, got {width!r}")
            if not isinstance(rows, list) or len(rows) != width:
                raise SpecError(
                    f"bim spec needs exactly {width} rows, got "
                    f"{len(rows) if isinstance(rows, list) else rows!r}"
                )
            if not all(isinstance(r, str) for r in rows):
                raise SpecError("bim spec rows must be hex strings")
        elif self.kind == "stages":
            stages = data.get("stages")
            if not isinstance(stages, list) or not stages:
                raise SpecError("stages spec needs a non-empty stage list")
            for stage in stages:
                if not isinstance(stage, dict) or stage.get("op") not in (
                    "xor", "swap", "permute"
                ):
                    raise SpecError(
                        f"stage op must be xor/swap/permute, got {stage!r}"
                    )
                _check_stage_bits(stage)

    # -- building -------------------------------------------------------
    def needs_entropy_profile(self) -> bool:
        """Whether building requires the suite-average entropy profile."""
        if self.kind != "registered":
            return False
        return registry.scheme_entry(self.name).needs_entropy_profile

    def build(
        self, address_map, seed: int = 0, entropy_by_bit=None
    ) -> MappingScheme:
        """Realize this spec against *address_map* (re-validating).

        Literal matrices go through the normal
        :class:`~repro.core.bim.BinaryInvertibleMatrix` constructor, so
        a corrupted spec can never produce a non-invertible mapping.
        """
        if self.kind == "registered":
            return registry.make_scheme(
                self.name, address_map,
                seed=seed, entropy_by_bit=entropy_by_bit, **self.data,
            )
        data = self.data
        if self.kind == "bim":
            if data["width"] != address_map.width:
                raise SpecError(
                    f"spec width {data['width']} does not match address map "
                    f"width {address_map.width}"
                )
            bim = BinaryInvertibleMatrix(
                unpack_rows(data["rows"], data["width"])
            )
            return MappingScheme(
                name=self.name,
                bim=bim,
                address_map=address_map,
                strategy=str(data.get("strategy", "broad")),
                extra_latency_cycles=int(data.get("extra_latency_cycles", 1)),
                metadata=dict(data.get("metadata", {})),
            )
        # stages
        matrix = self._compose_stages(address_map)
        return MappingScheme(
            name=self.name,
            bim=BinaryInvertibleMatrix(matrix),
            address_map=address_map,
            strategy="stages",
            extra_latency_cycles=int(data.get("extra_latency_cycles", 1)),
            metadata={"stages": len(data["stages"])},
        )

    def _compose_stages(self, address_map) -> np.ndarray:
        """The pipeline's matrix on *address_map*, or SpecError.

        Bit indices are integers (:meth:`_validate`); this checks them
        against the map's width and block bits, and the composition
        for invertibility.
        """
        width = address_map.width
        block = set(address_map.block_bits())

        def check_bit(bit, role) -> int:
            if not 0 <= bit < width:
                raise SpecError(f"stage {role} bit {bit} outside 0..{width - 1}")
            if bit in block:
                raise SpecError(
                    f"stage {role} bit {bit} is a block-offset bit; mapping "
                    f"schemes never read or move block bits"
                )
            return bit

        matrix = gf2.identity(width)
        for stage in self.data["stages"]:
            op = stage["op"]
            step = gf2.identity(width)
            if op == "xor":
                target = check_bit(stage["target"], "target")
                sources = [check_bit(s, "source") for s in stage["sources"]]
                for source in sources:
                    step[target, source] ^= 1
            elif op == "swap":
                a = check_bit(stage["a"], "swap")
                b = check_bit(stage["b"], "swap")
                step[[a, b]] = step[[b, a]]
            else:  # permute
                sources = stage["sources"]
                if len(sources) != width:
                    raise SpecError(
                        f"permute stage needs a full {width}-entry source list"
                    )
                if sorted(sources) != list(range(width)):
                    raise SpecError("permute stage sources must be a permutation")
                step = np.zeros((width, width), dtype=np.uint8)
                for out_bit, src in enumerate(sources):
                    if out_bit != src:
                        check_bit(out_bit, "permute")
                        check_bit(src, "permute")
                    step[out_bit, src] = 1
            matrix = gf2.gf2_matmul(step, matrix)
        if not gf2.is_invertible(matrix):
            raise SpecError(
                f"stage pipeline of {self.name!r} composes to a singular "
                f"matrix; the mapping would not be a bijection"
            )
        return matrix


# ----------------------------------------------------------------------
# WorkloadSpec
# ----------------------------------------------------------------------
def _file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass(frozen=True)
class WorkloadSpec(_Spec):
    """A serializable description of one workload."""

    _TYPE = WORKLOAD_SPEC_TYPE
    _KINDS = _WORKLOAD_KINDS

    # -- constructors ---------------------------------------------------
    @classmethod
    def registered(cls, name: str, **params) -> "WorkloadSpec":
        return cls("registered", name, _canonical_payload(params))

    @classmethod
    def pattern(cls, name: str, recipe: Dict) -> "WorkloadSpec":
        """A synthetic workload from a :mod:`repro.workloads.recipes` recipe."""
        from .workloads.recipes import validate_recipe

        validate_recipe(recipe)
        return cls("pattern", name, _canonical_payload({"recipe": recipe}))

    @classmethod
    def trace(
        cls, path, name: Optional[str] = None, sha256: Optional[str] = None
    ) -> "WorkloadSpec":
        """A trace file written by :func:`repro.workloads.io.save_workload`.

        The file's SHA-256 (computed now unless given) is the cache
        identity; the path is only the retrieval hint, so records stay
        valid when the file moves.
        """
        path = Path(path)
        digest = sha256 if sha256 is not None else _file_sha256(path)
        return cls("trace", name or path.stem, _canonical_payload({
            "path": str(path), "sha256": str(digest),
        }))

    @classmethod
    def from_value(cls, value) -> "WorkloadSpec":
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls.registered(value)
        if isinstance(value, dict):
            return cls.from_dict(value)
        raise SpecError(
            f"cannot interpret {type(value).__name__} as a workload spec"
        )

    @classmethod
    def from_dict(cls, data: Dict) -> "WorkloadSpec":
        data = _as_spec_dict(data, "workload spec")
        kind = data.get("type")
        if kind not in (None, WORKLOAD_SPEC_TYPE):
            raise SpecError(f"not a workload spec: type={kind!r}")
        payload = {
            k: v for k, v in data.items() if k not in ("type", "kind", "name")
        }
        return cls(
            str(data.get("kind", "registered")),
            str(_require(data, "name", "a workload spec")),
            _canonical_payload(payload),
        )

    @classmethod
    def from_file(cls, path) -> "WorkloadSpec":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))

    # -- validation -----------------------------------------------------
    def _validate(self) -> None:
        data = self.data
        if self.kind == "registered":
            reserved = {"type", "kind", "name", "scale"}.intersection(data)
            if reserved:
                raise SpecError(
                    f"registered-workload params may not use the reserved "
                    f"names {sorted(reserved)}; scale is a RunConfig axis"
                )
        elif self.kind == "pattern":
            if not isinstance(data.get("recipe"), dict):
                raise SpecError("pattern spec needs a 'recipe' object")
        elif self.kind == "trace":
            if not data.get("path") or not data.get("sha256"):
                raise SpecError("trace spec needs 'path' and 'sha256'")

    def identity(self) -> Union[str, Dict]:
        """Cache identity: trace specs hash content, never location."""
        if self.kind != "trace":
            return self.compact()
        return {
            "type": WORKLOAD_SPEC_TYPE, "kind": "trace",
            "name": self.name, "sha256": self.data["sha256"],
        }

    # -- building -------------------------------------------------------
    def build(self, scale: float = 1.0):
        """Realize this spec as a :class:`~repro.workloads.base.Workload`.

        Trace workloads are fixed recordings: *scale* does not resize
        them (it still participates in the cache key like any config
        axis).  The file's digest is re-verified before use.
        """
        if self.kind == "registered":
            return registry.make_workload(self.name, scale=scale, **self.data)
        data = self.data
        if self.kind == "pattern":
            from .workloads.recipes import build_recipe_workload

            return build_recipe_workload(self.name, data["recipe"], scale=scale)
        # trace
        from .workloads.io import load_workload

        path = Path(data["path"])
        if not path.exists():
            raise SpecError(f"trace file {path} does not exist")
        digest = _file_sha256(path)
        if digest != data["sha256"]:
            raise SpecError(
                f"trace file {path} hashes to {digest[:12]}..., but the spec "
                f"pins {data['sha256'][:12]}... — refusing to serve a "
                f"different trace under the same cache identity"
            )
        return load_workload(path)
