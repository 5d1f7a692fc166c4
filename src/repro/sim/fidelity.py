"""Simulation fidelity modes.

The simulator exposes a **fidelity axis** (threaded from
:class:`~repro.runner.config.RunConfig` all the way into
:class:`~repro.sim.gpu_system.GPUSystem`):

``"exact"`` (the default)
    Every cycle of every kernel runs on the discrete-event engine.
    Byte-identical to the pre-fidelity simulator: same results, same
    cache keys, no schema bump.

:class:`AutoFidelity` (``"auto"``)
    Per-kernel plan derived from the workload's own structure, so the
    defaults need no hand-tuning.  Each kernel gets a three-level
    fingerprint from one vectorized pass over its trace: its
    structural group (op count, TB count, warp count), its footprint
    *shape* (touched-bank count, hottest-bank load, unique row count
    under the memory's base address decode — scheme-independent), and
    its exact *content* (a hash of the sorted request-address
    multiset).  The plan runs kernel 0 (the cold-state exemplar) in
    full detail, measures warm kernels until each shape class has its
    exemplar quota (one exemplar for kernels of at least
    ``big_kernel_ops`` ops, whose steady phases dominate;
    ``exemplars`` for smaller, noisier kernels), and every later
    repeat is **replayed functionally** through the warmed L1/LLC/row
    state and estimated from the finest measured tier — an exact
    content twin when one was measured, else its shape class's mean.
    Measured kernels at least ``min_freeze_ops`` ops long are
    additionally skip-middle frozen at ``freeze_frac`` of their
    completions (keeping a detailed per-warp tail), with the middle
    extrapolated through the drift-corrected accounting.  The plan is
    a pure function of the workload (never of the mapping scheme), so
    an auto run of a scheme grid samples every scheme at the *same*
    per-kernel cut points and the fig12 speedup ratios see correlated
    — largely cancelling — estimation errors.

Serialized form (the shape carried by ``RunConfig.to_dict`` and hashed
into cache keys): the string ``"exact"``, or::

    {"kind": "auto", "exemplars": 2, "big_kernel_ops": 2048,
     "min_freeze_ops": 4096, "warmup_frac": 0.2, "freeze_frac": 0.5,
     "tail_frac": 0.3}

``"exact"`` configs *omit* the fidelity key entirely from their
serialized dict, so built-in cache keys are byte-identical to the
pre-fidelity format and warm caches stay warm; auto configs hash the
dict, so the two kinds' cache keys can never collide.  A dict with any
other ``kind`` or an unknown key is rejected rather than defaulted, so
a cache key is never computed from values nobody asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

__all__ = [
    "EXACT",
    "AUTO",
    "AutoFidelity",
    "Fidelity",
    "parse_fidelity",
    "fidelity_to_json",
    "fidelity_kind",
]

EXACT = "exact"

# AutoFidelity defaults.  ``exemplars`` is the per-shape-class quota
# of measured warm occurrences for *small* kernels, whose warm repeats
# are noisy enough that one sample misleads; kernels of at least
# ``big_kernel_ops`` ops need only one shape exemplar (their steady
# phases dominate, so warm repeats agree to a couple of percent).
# Kernel 0 is always measured on top, as the cold-state exemplar — its
# cycles are *not* transferred to warm siblings, where cold caches can
# swing per-kernel time by tens of percent in either direction.
# ``min_freeze_ops`` keeps the in-kernel freeze away from kernels
# short enough that the fill ramp plus tail would dominate the
# extrapolated share.  The freeze skips the *middle* of the kernel:
# the window closes at ``freeze_frac`` of completions and the last
# ``tail_frac`` share of every warp's ops runs detailed, so the
# end-of-kernel parallelism decay and pipeline drain — which no
# stationary rate predicts — are simulated rather than extrapolated.
DEFAULT_EXEMPLARS = 2
DEFAULT_BIG_KERNEL_OPS = 2048
DEFAULT_MIN_FREEZE_OPS = 4096
DEFAULT_WARMUP_FRAC = 0.2
DEFAULT_FREEZE_FRAC = 0.5
DEFAULT_TAIL_FRAC = 0.3

_INT_PARAMS = ("exemplars", "big_kernel_ops", "min_freeze_ops")
_FLOAT_PARAMS = ("warmup_frac", "freeze_frac", "tail_frac")


def _json_param(key: object, value: object):
    """One auto-fidelity dict value, type-checked for *key*.

    Integer parameters accept integral numbers only (``2.0`` but not
    ``2.9``); no parameter accepts a boolean or a non-number, and an
    unknown key is an error.
    """
    if key in _INT_PARAMS:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise ValueError(
            f"auto-fidelity parameter {key} must be an integer, got {value!r}"
        )
    if key in _FLOAT_PARAMS:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        raise ValueError(
            f"auto-fidelity parameter {key} must be a number, got {value!r}"
        )
    raise ValueError(
        f"unknown auto-fidelity parameter {key!r} (expected "
        f"{', '.join(_INT_PARAMS + _FLOAT_PARAMS)})"
    )


@dataclass(frozen=True)
class AutoFidelity:
    """Per-kernel automatic fidelity plan (see the module docstring).

    Warm kernels are measured until their shape class fills its
    exemplar quota — one measurement for kernels of at least
    ``big_kernel_ops`` ops, ``exemplars`` for smaller ones — and later
    repeats are replayed functionally and estimated from the finest
    measured tier (exact content twin, else shape-class mean).
    Measured kernels with at least ``min_freeze_ops`` ops freeze at
    ``freeze_frac`` of completions (the measured window opens at
    ``warmup_frac``); the freeze skips the steady middle of each
    warp's stream and keeps roughly a ``tail_frac`` op share to run
    detailed at the end.
    """

    exemplars: int = DEFAULT_EXEMPLARS
    big_kernel_ops: int = DEFAULT_BIG_KERNEL_OPS
    min_freeze_ops: int = DEFAULT_MIN_FREEZE_OPS
    warmup_frac: float = DEFAULT_WARMUP_FRAC
    freeze_frac: float = DEFAULT_FREEZE_FRAC
    tail_frac: float = DEFAULT_TAIL_FRAC

    def __post_init__(self) -> None:
        if self.exemplars < 1:
            raise ValueError(f"exemplars must be >= 1, got {self.exemplars}")
        if self.big_kernel_ops < 1:
            raise ValueError(
                f"big_kernel_ops must be >= 1, got {self.big_kernel_ops}"
            )
        if self.min_freeze_ops < 1:
            raise ValueError(
                f"min_freeze_ops must be >= 1, got {self.min_freeze_ops}"
            )
        if not 0.0 <= self.warmup_frac < self.freeze_frac <= 0.95:
            raise ValueError(
                f"need 0 <= warmup_frac < freeze_frac <= 0.95, got "
                f"warmup_frac={self.warmup_frac}, "
                f"freeze_frac={self.freeze_frac}"
            )
        if not 0.0 <= self.tail_frac <= 1.0 - self.freeze_frac:
            raise ValueError(
                f"need 0 <= tail_frac <= 1 - freeze_frac, got "
                f"tail_frac={self.tail_frac}, "
                f"freeze_frac={self.freeze_frac}"
            )

    @property
    def keep_share(self) -> float:
        """Share of each warp's *remaining* ops the freeze keeps detailed."""
        return self.tail_frac / (1.0 - self.freeze_frac)

    def to_json(self) -> Dict[str, object]:
        return {
            "kind": "auto",
            "exemplars": self.exemplars,
            "big_kernel_ops": self.big_kernel_ops,
            "min_freeze_ops": self.min_freeze_ops,
            "warmup_frac": self.warmup_frac,
            "freeze_frac": self.freeze_frac,
            "tail_frac": self.tail_frac,
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "AutoFidelity":
        if data.get("kind") != "auto":
            raise ValueError(
                f"not an auto-fidelity dict: kind={data.get('kind')!r}"
            )
        return cls(**{
            key: _json_param(key, value)
            for key, value in data.items() if key != "kind"
        })

    @classmethod
    def parse(cls, text: str) -> "AutoFidelity":
        """Parse the CLI form ``auto[:exemplars=N,min_freeze_ops=N,...]``."""
        body = text.strip()
        if body.lower().startswith("auto"):
            body = body[len("auto"):]
        had_params = bool(body)
        body = body.lstrip(":")
        kwargs: Dict[str, object] = {}
        for part in body.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            key = key.strip().lower()
            if not sep or key not in _INT_PARAMS + _FLOAT_PARAMS:
                raise ValueError(
                    f"bad auto-fidelity parameter {part!r} (expected "
                    f"exemplars=/big_kernel_ops=/min_freeze_ops=/"
                    f"warmup_frac=/freeze_frac=/tail_frac=)"
                )
            try:
                kwargs[key] = (
                    int(value.strip()) if key in _INT_PARAMS
                    else float(value.strip())
                )
            except ValueError:
                raise ValueError(
                    f"auto-fidelity parameter {key} must be numeric, "
                    f"got {value.strip()!r}"
                ) from None
        if had_params and not kwargs:
            raise ValueError(
                f"bad auto-fidelity string {text!r}: expected parameters "
                f"after ':' (exemplars=/big_kernel_ops=/...)"
            )
        return cls(**kwargs)

    def __str__(self) -> str:
        return (
            f"auto:exemplars={self.exemplars},"
            f"big_kernel_ops={self.big_kernel_ops},"
            f"min_freeze_ops={self.min_freeze_ops},"
            f"warmup_frac={self.warmup_frac},"
            f"freeze_frac={self.freeze_frac},"
            f"tail_frac={self.tail_frac}"
        )


AUTO = AutoFidelity()

Fidelity = Union[str, AutoFidelity]


def parse_fidelity(value: Optional[object]) -> Fidelity:
    """Normalize any accepted fidelity form.

    Accepts ``None`` / ``"exact"`` (-> :data:`EXACT`), an
    :class:`AutoFidelity`, the CLI string form
    ``auto[:exemplars=..,...]``, or the serialized dict form.
    """
    if value is None:
        return EXACT
    if isinstance(value, AutoFidelity):
        return value
    if isinstance(value, dict):
        return AutoFidelity.from_json(value)
    if isinstance(value, str):
        text = value.strip().lower()
        if text in ("", EXACT):
            return EXACT
        if text.startswith("auto"):
            return AutoFidelity.parse(value.strip())
        raise ValueError(
            f"unknown fidelity {value!r} (expected 'exact' or "
            f"'auto[:exemplars=N,...]')"
        )
    raise TypeError(
        f"fidelity must be a string, dict or AutoFidelity, "
        f"got {type(value).__name__}"
    )


def fidelity_to_json(fidelity: Fidelity) -> Union[str, Dict[str, object]]:
    """The JSON-safe form: ``"exact"`` or the parameter dict."""
    if fidelity == EXACT:
        return EXACT
    if isinstance(fidelity, AutoFidelity):
        return fidelity.to_json()
    raise TypeError(f"not a normalized fidelity: {fidelity!r}")


def fidelity_kind(fidelity) -> str:
    """The coarse mode name: ``"exact"`` or ``"auto"``.

    Accepts anything :func:`parse_fidelity` accepts.  Recorded in
    cache sidecars — wall clock differs by mode far more than by the
    mode's parameters.
    """
    value = fidelity_to_json(parse_fidelity(fidelity))
    if isinstance(value, str):
        return value
    return str(value.get("kind", EXACT))
