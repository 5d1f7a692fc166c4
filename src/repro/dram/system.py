"""The multi-channel DRAM system.

Bundles one :class:`~repro.dram.controller.MemoryController` per
channel (or per vault for 3D-stacked parts), routes decoded requests
to the right controller, and aggregates statistics and power across
the whole memory system.

Routing is driven by the :class:`~repro.core.address_map.AddressMap`:
conventional maps have a ``channel`` field; stacked maps have
``stack`` and ``vault`` fields which together select one of the
stacks x vaults independent controllers
(:func:`repro.core.mapper.dram_channels` computes the index).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

from ..core.address_map import AddressMap
from .controller import MemoryController

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.engine import Engine
from .power import DRAMPowerBreakdown, DRAMPowerModel, DRAMPowerParams, gddr5_power_params
from .scheduler import DRAMRequest, FRFCFSScheduler
from .timing import DRAMTiming

__all__ = ["DRAMSystem"]


class DRAMSystem:
    """All DRAM channels of the simulated GPU."""

    def __init__(
        self,
        engine: "Engine",
        timing: DRAMTiming,
        address_map: AddressMap,
        on_complete: Optional[Callable[[DRAMRequest, int], None]] = None,
        power_params: Optional[DRAMPowerParams] = None,
        scheduler_factory: Optional[Callable[[int], FRFCFSScheduler]] = None,
    ) -> None:
        self._timing = timing
        expected = self._expected_channels(address_map)
        if expected != timing.channels:
            raise ValueError(
                f"address map implies {expected} independent channels but the "
                f"timing configuration has {timing.channels}"
            )
        factory = scheduler_factory or (lambda _i: FRFCFSScheduler(timing.banks_per_channel))
        self.controllers: List[MemoryController] = [
            MemoryController(
                engine, timing, channel_id=i, on_complete=on_complete,
                scheduler=factory(i),
            )
            for i in range(timing.channels)
        ]
        self._power_model = DRAMPowerModel(timing, power_params or gddr5_power_params())

    @staticmethod
    def _expected_channels(address_map: AddressMap) -> int:
        if "channel" in address_map:
            return address_map.field("channel").size
        if "stack" in address_map and "vault" in address_map:
            return address_map.field("stack").size * address_map.field("vault").size
        raise ValueError(
            "address map must define either a 'channel' field or "
            "'stack' + 'vault' fields"
        )

    @property
    def timing(self) -> DRAMTiming:
        return self._timing

    @property
    def n_channels(self) -> int:
        return len(self.controllers)

    def submit_many(self, channel: int, requests) -> None:
        """Hand a same-cycle batch of decoded requests to one controller."""
        self.controllers[channel].submit_many(requests)

    # ------------------------------------------------------------------
    # Aggregate statistics
    # ------------------------------------------------------------------
    @property
    def activates(self) -> int:
        return sum(c.activates for c in self.controllers)

    @property
    def reads(self) -> int:
        return sum(c.reads for c in self.controllers)

    @property
    def writes(self) -> int:
        return sum(c.writes for c in self.controllers)

    @property
    def accesses(self) -> int:
        return sum(c.accesses for c in self.controllers)

    @property
    def pending(self) -> int:
        return sum(c.pending for c in self.controllers)

    def row_hit_rate(self) -> float:
        """System-wide row buffer hit rate (Fig. 15)."""
        total = self.accesses
        if not total:
            return 0.0
        return sum(c.row_hits for c in self.controllers) / total

    def power(self, elapsed_cycles: int) -> DRAMPowerBreakdown:
        """Average DRAM power over *elapsed_cycles* (Fig. 16)."""
        return self._power_model.breakdown(self.controllers, elapsed_cycles)

    def __repr__(self) -> str:
        return (
            f"DRAMSystem({self._timing.name!r}, channels={self.n_channels}, "
            f"accesses={self.accesses})"
        )
