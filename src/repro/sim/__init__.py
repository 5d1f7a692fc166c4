"""Discrete-event full-system simulator."""

from .auto import SampledAccounting
from .engine import Engine, SimulationError
from .fidelity import EXACT, fidelity_to_json, parse_fidelity
from .gpu_system import GPUSystem, simulate
from .results import SimulationResult, perf_per_watt_ratio, speedup

__all__ = [
    "EXACT",
    "Engine",
    "GPUSystem",
    "SampledAccounting",
    "SimulationError",
    "SimulationResult",
    "fidelity_to_json",
    "parse_fidelity",
    "perf_per_watt_ratio",
    "simulate",
    "speedup",
]
