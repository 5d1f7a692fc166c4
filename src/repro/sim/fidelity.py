"""Simulation fidelity modes.

The simulator exposes a **fidelity axis** (threaded from
:class:`~repro.runner.config.RunConfig` all the way into
:meth:`GPUSystem.run <repro.sim.gpu_system.GPUSystem.run>`).  A
normalized fidelity is one of two strings:

``"exact"`` (the default)
    Every cycle of every kernel runs on the discrete-event engine.
    Byte-identical to the pre-fidelity simulator: same results, same
    cache keys, no schema bump.

``"auto"``
    Per-kernel sampling derived from the workload's own structure, so
    it needs no hand-tuning: its six parameters are the module
    constants below, which only :mod:`repro.sim.auto` simulates with.
    A plan fingerprints every kernel, measures exemplars, and replays
    and estimates their repeats; big measured kernels also skip their
    steady middle.  The plan is a pure function of the workload (never
    of the mapping scheme), so an auto run of a scheme grid samples
    every scheme at the *same* per-kernel cut points and the fig12
    speedup ratios see correlated — largely cancelling — estimation
    errors.

Serialized form (the shape carried by ``RunConfig.to_dict`` and hashed
into cache keys): the string ``"exact"``, or auto's constants as a
dict::

    {"kind": "auto", "exemplars": 2, "big_kernel_ops": 2048,
     "min_freeze_ops": 4096, "warmup_frac": 0.2, "freeze_frac": 0.5,
     "tail_frac": 0.3}

``"exact"`` configs *omit* the fidelity key entirely from their
serialized dict, so built-in cache keys are byte-identical to the
pre-fidelity format and warm caches stay warm; auto configs hash the
dict, so the two kinds' cache keys can never collide, and changing a
constant re-keys every auto record.  A dict with any other ``kind``,
an unknown key or a value other than the constant's is rejected
rather than ignored, so a cache key never names values the run did
not use.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

__all__ = [
    "EXACT",
    "AUTO",
    "EXEMPLARS",
    "BIG_KERNEL_OPS",
    "MIN_FREEZE_OPS",
    "WARMUP_FRAC",
    "FREEZE_FRAC",
    "TAIL_FRAC",
    "parse_fidelity",
    "fidelity_to_json",
]

EXACT = "exact"
AUTO = "auto"

# Auto's parameters.  ``EXEMPLARS`` is the per-shape-class quota of
# measured warm occurrences for *small* kernels, whose warm repeats
# are noisy enough that one sample misleads; kernels of at least
# ``BIG_KERNEL_OPS`` ops need only one shape exemplar (their steady
# phases dominate, so warm repeats agree to a couple of percent).
# Kernel 0 is always measured on top, as the cold-state exemplar — its
# cycles are *not* transferred to warm siblings, where cold caches can
# swing per-kernel time by tens of percent in either direction.
# ``MIN_FREEZE_OPS`` keeps the in-kernel freeze away from kernels
# short enough that the fill ramp plus tail would dominate the
# extrapolated share.  The freeze skips the *middle* of the kernel:
# the measurement window opens at ``WARMUP_FRAC`` of completions and
# closes at ``FREEZE_FRAC``, and the last ``TAIL_FRAC`` share of every
# warp's ops runs detailed, so the end-of-kernel parallelism decay and
# pipeline drain — which no stationary rate predicts — are simulated
# rather than extrapolated.
EXEMPLARS = 2
BIG_KERNEL_OPS = 2048
MIN_FREEZE_OPS = 4096
WARMUP_FRAC = 0.2
FREEZE_FRAC = 0.5
TAIL_FRAC = 0.3


def parse_fidelity(value: Optional[object]) -> str:
    """Normalize any accepted fidelity form to :data:`EXACT` or :data:`AUTO`.

    Accepts ``None`` / ``""`` / ``"exact"``, ``"auto"`` (any case,
    surrounding blanks ignored), or an auto dict carrying any subset
    of :func:`fidelity_to_json`'s entries: ``{"kind": "auto"}``, or
    an old record's full dict.  Integral floats match integer
    constants (``2.0`` for ``2``); booleans and non-numbers never do.
    """
    if value is None:
        return EXACT
    if isinstance(value, dict):
        if value.get("kind") != AUTO:
            raise ValueError(
                f"not an auto-fidelity dict: kind={value.get('kind')!r}"
            )
        fixed = fidelity_to_json(AUTO)
        for key, given in value.items():
            if key not in fixed:
                raise ValueError(
                    f"unknown auto-fidelity parameter {key!r} (expected "
                    f"{', '.join(k for k in fixed if k != 'kind')})"
                )
            if key != "kind" and (
                isinstance(given, bool)
                or not isinstance(given, (int, float))
                or given != fixed[key]
            ):
                raise ValueError(
                    f"auto-fidelity parameter {key} is fixed at "
                    f"{fixed[key]!r}, got {given!r}"
                )
        return AUTO
    if isinstance(value, str):
        text = value.strip().lower()
        if text in ("", EXACT):
            return EXACT
        if text == AUTO:
            return AUTO
        raise ValueError(
            f"unknown fidelity {value!r} (expected 'exact' or 'auto')"
        )
    raise TypeError(
        f"fidelity must be a string or dict, got {type(value).__name__}"
    )


def fidelity_to_json(fidelity: str) -> Union[str, Dict[str, object]]:
    """The JSON-safe form: ``"exact"`` or auto's parameter dict."""
    if fidelity == EXACT:
        return EXACT
    if fidelity == AUTO:
        return {
            "kind": AUTO,
            "exemplars": EXEMPLARS,
            "big_kernel_ops": BIG_KERNEL_OPS,
            "min_freeze_ops": MIN_FREEZE_OPS,
            "warmup_frac": WARMUP_FRAC,
            "freeze_frac": FREEZE_FRAC,
            "tail_frac": TAIL_FRAC,
        }
    raise TypeError(f"not a normalized fidelity: {fidelity!r}")
