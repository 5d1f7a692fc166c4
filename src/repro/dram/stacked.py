"""3D-stacked memory configuration helpers (Fig. 18 sensitivity study).

The paper's stacked system has 4 memory stacks with 16 vaults per
stack and 16 banks per vault, 640 GB/s aggregate.  Each vault owns an
independent controller, so the memory system behaves like 64 narrow
channels; the mapping schemes must therefore randomize the 2 stack
(channel-role) bits, 4 vault bits and 4 bank bits.

This module only wires existing pieces together: the stacked address
map (:func:`repro.core.address_map.stacked_memory_map`), the stacked
timing (:func:`repro.dram.timing.stacked_timing`) and power parameters
scaled for many narrow channels.
"""

from __future__ import annotations

from ..core.address_map import stacked_memory_map
from ..registry import MemoryConfig
from .power import DRAMPowerParams
from .timing import stacked_timing

__all__ = ["stacked_memory_config"]


def stacked_memory_config() -> MemoryConfig:
    """The Fig. 18 3D-stacked configuration.

    Per-vault background power is much lower than a GDDR5 channel's
    (no long board traces), and TSV I/O makes reads cheaper; activate
    energy stays DRAM-array-bound.
    """
    return MemoryConfig(
        "stacked",
        address_map=stacked_memory_map(),
        timing=stacked_timing(),
        power_params=DRAMPowerParams(
            background_watts_per_channel=0.12,
            refresh_watts_per_channel=0.03,
            activate_energy_nj=18.0,
            read_energy_nj=4.5,
            write_energy_nj=5.0,
        ),
    )
