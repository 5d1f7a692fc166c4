"""DRAM substrate: banks, FR-FCFS controllers, timing and power models."""

from .bank import AccessKind, Bank
from .controller import MemoryController
from .power import (
    DRAMPowerBreakdown,
    DRAMPowerModel,
    DRAMPowerParams,
    gddr5_power_params,
)
from .scheduler import DRAMRequest, FCFSScheduler, FRFCFSScheduler
from .stacked import stacked_memory_config
from .system import DRAMSystem
from .timing import DRAMTiming, gddr5_timing, stacked_timing

__all__ = [
    "AccessKind",
    "Bank",
    "DRAMPowerBreakdown",
    "DRAMPowerModel",
    "DRAMPowerParams",
    "DRAMRequest",
    "DRAMSystem",
    "DRAMTiming",
    "FCFSScheduler",
    "FRFCFSScheduler",
    "MemoryController",
    "gddr5_power_params",
    "gddr5_timing",
    "stacked_memory_config",
    "stacked_timing",
]
