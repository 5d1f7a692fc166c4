"""repro — a reproduction of "Get Out of the Valley: Power-Efficient
Address Mapping for GPUs" (Liu et al., ISCA 2018).

The package implements the paper's contribution and every substrate it
is evaluated on:

* :mod:`repro.core` — the Binary Invertible Matrix (BIM) abstraction,
  the six address mapping schemes (BASE, PM, RMP, PAE, FAE, ALL) and
  the window-based entropy metric;
* :mod:`repro.dram` — a GDDR5-class DRAM model with banks, FR-FCFS
  controllers, a Micron-style power model and a 3D-stacked variant;
* :mod:`repro.gpu` — SMs, caches with MSHRs, a crossbar NoC and TB
  scheduling;
* :mod:`repro.sim` — the event-driven full-system simulator;
* :mod:`repro.workloads` — the 16-benchmark suite of the paper's
  Table II as synthetic trace generators;
* :mod:`repro.analysis` — the experiment harness regenerating every
  table and figure of the evaluation.

Quickstart::

    from repro import api

    table = api.compare("MT", ["PAE"], scale=0.5)
    print(table["PAE"]["speedup"])  # PAE speedup over the Hynix map

or, assembling the pieces yourself::

    from repro import hynix_gddr5_map, simulate, build_workload
    from repro.registry import make_scheme

    amap = hynix_gddr5_map()
    workload = build_workload("MT")
    base = simulate(workload, make_scheme("BASE", amap))
    pae = simulate(workload, make_scheme("PAE", amap))
    print(base.cycles / pae.cycles)

Custom schemes and workloads register via :mod:`repro.registry`
decorators or travel as serializable :mod:`repro.specs` documents —
see ``examples/custom_scheme.py``.
"""

from . import api, registry, specs
from .analysis import ExperimentRunner, harmonic_mean
from .core import (
    BIM,
    AddressMap,
    BinaryInvertibleMatrix,
    EntropyProfile,
    MappingScheme,
    SCHEME_NAMES,
    application_entropy_profile,
    find_entropy_valleys,
    has_parallel_bit_valley,
    hynix_gddr5_map,
    kernel_entropy_profile,
    stacked_memory_map,
    window_entropy,
)
from .dram import DRAMSystem, DRAMTiming, gddr5_timing, stacked_timing
from .gpu import GPUConfig, baseline_config, config_with_sms
from .registry import register_scheme, register_workload
from .sim import GPUSystem, SimulationResult, simulate, speedup
from .specs import SchemeSpec, WorkloadSpec
from .workloads import (
    ALL_BENCHMARKS,
    NON_VALLEY_BENCHMARKS,
    VALLEY_BENCHMARKS,
    Workload,
    build_suite,
    build_workload,
)

__version__ = "1.0.0"

__all__ = [
    "ALL_BENCHMARKS",
    "AddressMap",
    "BIM",
    "BinaryInvertibleMatrix",
    "DRAMSystem",
    "DRAMTiming",
    "EntropyProfile",
    "ExperimentRunner",
    "GPUConfig",
    "GPUSystem",
    "MappingScheme",
    "NON_VALLEY_BENCHMARKS",
    "SCHEME_NAMES",
    "SchemeSpec",
    "SimulationResult",
    "VALLEY_BENCHMARKS",
    "Workload",
    "WorkloadSpec",
    "api",
    "application_entropy_profile",
    "baseline_config",
    "build_suite",
    "build_workload",
    "config_with_sms",
    "find_entropy_valleys",
    "gddr5_timing",
    "harmonic_mean",
    "has_parallel_bit_valley",
    "hynix_gddr5_map",
    "kernel_entropy_profile",
    "register_scheme",
    "register_workload",
    "registry",
    "simulate",
    "specs",
    "speedup",
    "stacked_memory_map",
    "stacked_timing",
    "window_entropy",
    "__version__",
]
