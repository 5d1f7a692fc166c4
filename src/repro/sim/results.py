"""Simulation result records and derived metrics.

A :class:`SimulationResult` captures everything one (workload, scheme,
configuration) run produces: the raw counters every figure of the
paper's evaluation is computed from.  Derived quantities (speedup,
performance per Watt) are computed by comparing results, mirroring how
the paper normalizes everything to the BASE mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..dram.power import DRAMPowerBreakdown

__all__ = ["SimulationResult", "speedup", "perf_per_watt_ratio", "RESULT_FORMAT"]

# Bumped whenever the serialized record layout changes incompatibly.
RESULT_FORMAT = "simulation_result/1"


@dataclass(frozen=True)
class SimulationResult:
    """All measurements of one simulation run."""

    workload: str
    scheme: str
    cycles: int
    requests: int
    # Memory hierarchy.
    l1_miss_rate: float
    llc_miss_rate: float
    llc_accesses: int
    noc_mean_latency: float
    # Memory-level parallelism (Fig. 14).
    llc_parallelism: float
    channel_parallelism: float
    bank_parallelism: float
    # DRAM behaviour.
    row_hit_rate: float
    dram_activates: int
    dram_reads: int
    dram_writes: int
    dram_power: DRAMPowerBreakdown
    # System power (GPU + DRAM), in watts.
    gpu_power: float
    # Bookkeeping.
    instructions: float
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.cycles <= 0:
            raise ValueError(f"run must take positive time, got {self.cycles} cycles")
        if self.requests < 0:
            raise ValueError("request count cannot be negative")

    @property
    def system_power(self) -> float:
        """Total average power: GPU + DRAM (drives Fig. 17)."""
        return self.gpu_power + self.dram_power.total

    @property
    def performance(self) -> float:
        """Work per cycle (higher is better); inverse execution time
        for a fixed workload."""
        return 1.0 / self.cycles

    @property
    def perf_per_watt(self) -> float:
        """Performance per Watt of total system power."""
        return self.performance / self.system_power

    def to_dict(self) -> Dict[str, object]:
        """Portable, JSON-safe dict (cache records, sweep reports).

        Round-trips exactly through :meth:`from_dict`: floats survive
        via JSON's repr round-trip and the power breakdown is nested as
        its own dict.
        """
        return {
            "type": RESULT_FORMAT,
            "workload": self.workload,
            "scheme": self.scheme,
            "cycles": self.cycles,
            "requests": self.requests,
            "l1_miss_rate": self.l1_miss_rate,
            "llc_miss_rate": self.llc_miss_rate,
            "llc_accesses": self.llc_accesses,
            "noc_mean_latency": self.noc_mean_latency,
            "llc_parallelism": self.llc_parallelism,
            "channel_parallelism": self.channel_parallelism,
            "bank_parallelism": self.bank_parallelism,
            "row_hit_rate": self.row_hit_rate,
            "dram_activates": self.dram_activates,
            "dram_reads": self.dram_reads,
            "dram_writes": self.dram_writes,
            "dram_power": self.dram_power.as_dict(),
            "gpu_power": self.gpu_power,
            "instructions": self.instructions,
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SimulationResult":
        """Rebuild a result from :meth:`to_dict` output (re-validating)."""
        if data.get("type") != RESULT_FORMAT:
            raise ValueError(
                f"not a serialized simulation result: type={data.get('type')!r}"
            )
        return cls(
            workload=str(data["workload"]),
            scheme=str(data["scheme"]),
            cycles=int(data["cycles"]),
            requests=int(data["requests"]),
            l1_miss_rate=float(data["l1_miss_rate"]),
            llc_miss_rate=float(data["llc_miss_rate"]),
            llc_accesses=int(data["llc_accesses"]),
            noc_mean_latency=float(data["noc_mean_latency"]),
            llc_parallelism=float(data["llc_parallelism"]),
            channel_parallelism=float(data["channel_parallelism"]),
            bank_parallelism=float(data["bank_parallelism"]),
            row_hit_rate=float(data["row_hit_rate"]),
            dram_activates=int(data["dram_activates"]),
            dram_reads=int(data["dram_reads"]),
            dram_writes=int(data["dram_writes"]),
            dram_power=DRAMPowerBreakdown.from_dict(dict(data["dram_power"])),
            gpu_power=float(data["gpu_power"]),
            instructions=float(data["instructions"]),
            metadata=dict(data.get("metadata", {})),
        )

    def __repr__(self) -> str:
        return (
            f"SimulationResult({self.workload}/{self.scheme}: cycles={self.cycles}, "
            f"row_hit={self.row_hit_rate:.2f}, dram={self.dram_power.total:.1f}W)"
        )


def speedup(result: SimulationResult, baseline: SimulationResult) -> float:
    """Execution-time speedup of *result* over *baseline* (Fig. 12)."""
    _check_comparable(result, baseline)
    return baseline.cycles / result.cycles


def perf_per_watt_ratio(result: SimulationResult, baseline: SimulationResult) -> float:
    """Performance-per-Watt improvement over *baseline* (Fig. 17)."""
    _check_comparable(result, baseline)
    return result.perf_per_watt / baseline.perf_per_watt


def _check_comparable(a: SimulationResult, b: SimulationResult) -> None:
    if a.workload != b.workload:
        raise ValueError(
            f"cannot compare different workloads: {a.workload!r} vs {b.workload!r}"
        )
