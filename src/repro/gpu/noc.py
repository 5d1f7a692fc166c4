"""Crossbar network-on-chip model.

The paper's GPU connects 12 SMs to 8 LLC slices through a 12x8
crossbar with 32-byte channels.  A crossbar has no intermediate
routers, so the dominant queueing effect is **output-port
contention**: packets heading to the same slice (or, on the response
network, the same SM) serialize on that port.  That is exactly the
effect address mapping manipulates — an entropy valley concentrates
traffic on few slices and their ports back up (Fig. 13a).

Model: each destination port owns a busy-until time.  A packet
arriving at ``now`` starts transferring at ``max(now, port_free)``,
occupies the port for its flit count, and is delivered
``base_latency`` cycles after its transfer completes.  Packet
latencies (arrival to delivery) are recorded for the Fig. 13a metric.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.engine import Engine

__all__ = ["Crossbar", "NoCStats"]

# "No payload" marker for send(): distinguishes an omitted arg from a
# legitimate None payload.
_NO_ARG = object()


class NoCStats:
    """Latency and traffic accounting for one crossbar (kept by
    :meth:`Crossbar.send`)."""

    def __init__(self) -> None:
        self.packets = 0
        self.flits = 0
        self.total_latency = 0
        self.max_latency = 0

    @property
    def mean_latency(self) -> float:
        return self.total_latency / self.packets if self.packets else 0.0


class Crossbar:
    """One direction of the NoC (request: SMs->slices, response: slices->SMs)."""

    def __init__(
        self,
        engine: "Engine",
        n_inputs: int,
        n_outputs: int,
        base_latency: int,
        name: str = "noc",
    ) -> None:
        if n_inputs <= 0 or n_outputs <= 0:
            raise ValueError(
                f"crossbar needs positive port counts, got {n_inputs}x{n_outputs}"
            )
        if base_latency < 0:
            raise ValueError(f"base latency must be non-negative, got {base_latency}")
        self._engine = engine
        self.name = name
        self.n_inputs = n_inputs
        self.n_outputs = n_outputs
        self._base_latency = base_latency
        self._port_free_at: List[int] = [0] * n_outputs
        self.stats = NoCStats()

    def send(
        self,
        source: int,
        destination: int,
        flits: int,
        on_delivered: Callable[..., None],
        arg: object = _NO_ARG,
    ) -> int:
        """Inject a packet; *on_delivered* fires at the destination.

        Returns the delivery time.  *source* is validated but (being a
        crossbar) does not contend — only output ports queue.  When
        *arg* is given, delivery invokes ``on_delivered(arg)`` through
        the engine's closure-free fast path (no lambda per packet);
        otherwise ``on_delivered()``.
        """
        if not 0 <= source < self.n_inputs:
            raise ValueError(f"{self.name}: source port {source} out of range")
        if not 0 <= destination < self.n_outputs:
            raise ValueError(f"{self.name}: destination port {destination} out of range")
        if flits <= 0:
            raise ValueError(f"{self.name}: packets need at least one flit, got {flits}")
        engine = self._engine
        now = engine.now
        port_free_at = self._port_free_at
        free = port_free_at[destination]
        done = (free if free > now else now) + flits
        port_free_at[destination] = done
        delivery = done + self._base_latency
        # Latency accounting, inline (one call per packet).
        latency = delivery - now
        stats = self.stats
        stats.packets += 1
        stats.flits += flits
        stats.total_latency += latency
        if latency > stats.max_latency:
            stats.max_latency = latency
        if arg is _NO_ARG:
            engine.at(delivery, on_delivered)
        else:
            engine.at_call(delivery, on_delivered, arg)
        return delivery

    def port_backlog(self, destination: int) -> int:
        """Cycles of queued transfer time at an output port right now."""
        return max(0, self._port_free_at[destination] - self._engine.now)

    def __repr__(self) -> str:
        return (
            f"Crossbar({self.name!r}, {self.n_inputs}x{self.n_outputs}, "
            f"packets={self.stats.packets}, mean_latency={self.stats.mean_latency:.1f})"
        )
