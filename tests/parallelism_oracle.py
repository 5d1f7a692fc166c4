"""The outstanding-count tracker, kept as the Fig. 14 metrics' oracle.

The simulator used to instrument every request with a +1 when it
became outstanding and a -1 when it completed, integrating the busy
unit count as it went.  It now logs busy intervals and integrates them
once (:func:`repro.sim.metrics.busy_time`).  The tracker here is the
mechanism it replaced, unchanged: ``tests/sim/test_metrics.py`` pins
the interval integration to it.
"""

from typing import Sequence


class OutstandingTracker:
    """Integrates the busy-unit count over active time.

    ``change(unit, delta, now)`` adjusts unit occupancy; ``value(now)``
    returns the average number of busy units over the cycles where at
    least one unit was busy (0 if never active).
    """

    def __init__(self, n_units: int, name: str = "") -> None:
        if n_units <= 0:
            raise ValueError(f"need at least one unit, got {n_units}")
        self.name = name
        self._counts = [0] * n_units
        self._busy_units = 0
        self._last_time = 0
        self._busy_unit_integral = 0  # sum of busy-unit-count * dt
        self._active_time = 0  # cycles with >= 1 busy unit
        self._peak = 0

    @property
    def n_units(self) -> int:
        return len(self._counts)

    @property
    def peak(self) -> int:
        """Maximum simultaneous busy units observed."""
        return self._peak

    def outstanding(self, unit: int) -> int:
        return self._counts[unit]

    def _advance(self, now: int) -> None:
        dt = now - self._last_time
        if dt < 0:
            raise ValueError(f"time went backwards: {self._last_time} -> {now}")
        if dt and self._busy_units:
            self._busy_unit_integral += self._busy_units * dt
            self._active_time += dt
        self._last_time = now

    def change(self, unit: int, delta: int, now: int) -> None:
        """Adjust unit *unit*'s outstanding count by *delta* at time *now*."""
        # _advance, inlined: change() runs several times per request.
        dt = now - self._last_time
        if dt:
            if dt < 0:
                raise ValueError(f"time went backwards: {self._last_time} -> {now}")
            if self._busy_units:
                self._busy_unit_integral += self._busy_units * dt
                self._active_time += dt
            self._last_time = now
        before = self._counts[unit]
        after = before + delta
        if after < 0:
            raise ValueError(
                f"{self.name or 'tracker'}: unit {unit} outstanding underflow"
            )
        self._counts[unit] = after
        if before == 0 and after > 0:
            self._busy_units += 1
            if self._busy_units > self._peak:
                self._peak = self._busy_units
        elif before > 0 and after == 0:
            self._busy_units -= 1

    def value(self, now: int) -> float:
        """Average busy units over active time, up to *now*."""
        self._advance(now)
        if not self._active_time:
            return 0.0
        return self._busy_unit_integral / self._active_time

    def active_fraction(self, now: int) -> float:
        """Fraction of elapsed time with at least one busy unit."""
        self._advance(now)
        return self._active_time / now if now else 0.0

    @property
    def active_time(self) -> int:
        return self._active_time

    @property
    def busy_unit_integral(self) -> int:
        return self._busy_unit_integral


def combined_parallelism(trackers: Sequence[OutstandingTracker], now: int) -> float:
    """Busy-time-weighted mean across trackers (per-channel bank MLP)."""
    total_integral = 0
    total_active = 0
    for tracker in trackers:
        tracker._advance(now)
        total_integral += tracker.busy_unit_integral
        total_active += tracker.active_time
    if not total_active:
        return 0.0
    return total_integral / total_active
