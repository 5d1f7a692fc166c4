"""GPU substrate: SMs, caches, NoC, TB scheduling and power."""

from .cache import CacheStats, MSHRFile, MSHROutcome, SetAssociativeCache
from .config import GPUConfig, baseline_config, config_with_sms
from .llc import LLCSlice
from .noc import Crossbar, NoCStats
from .power import GPUPowerModel, GPUPowerParams, default_gpu_power_params
from .sm import SM, MemRequest
from .tb_scheduler import TBScheduler
from .thread_block import TBContext, WarpContext

__all__ = [
    "CacheStats",
    "Crossbar",
    "GPUConfig",
    "GPUPowerModel",
    "GPUPowerParams",
    "LLCSlice",
    "MSHRFile",
    "MSHROutcome",
    "MemRequest",
    "NoCStats",
    "SM",
    "SetAssociativeCache",
    "TBContext",
    "TBScheduler",
    "WarpContext",
    "baseline_config",
    "config_with_sms",
    "default_gpu_power_params",
]
