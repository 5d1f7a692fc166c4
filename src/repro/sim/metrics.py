"""Time-integrated simulation metrics.

The paper's memory-level-parallelism metrics (Fig. 14) are defined as
"the number of outstanding requests if at least one is outstanding":
a time average of the number of busy units, conditioned on the system
being active.  :class:`OutstandingTracker` implements exactly that —
it integrates the number of units with a non-zero outstanding count
over the cycles in which at least one unit is busy.

Three trackers instrument a run:

* LLC-level parallelism  — units are the 8 LLC slices,
* channel-level parallelism — units are the DRAM channels,
* bank-level parallelism — one tracker per channel over its banks
  ("bank-level parallelism is quantified per channel"); the reported
  number is the busy-time-weighted mean across channels.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "OutstandingTracker",
    "MeanStat",
    "SampledAccounting",
    "combined_parallelism",
]


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


class _Window:
    """One measured detailed window and its trajectory."""

    __slots__ = ("cycles", "requests", "segments")

    def __init__(self, cycles: int, requests: int, segments) -> None:
        self.cycles = cycles
        self.requests = requests
        # Trajectory samples inside the window: tuples of
        # (cycles, requests, row_hits, row_accesses, queue_depth) per
        # polling segment, in time order.  Optional (may be empty).
        self.segments = list(segments or ())

    def rate(self) -> Optional[float]:
        if self.requests:
            return self.cycles / self.requests
        return None


class _FastForward:
    """One fast-forward phase and the drain that followed it."""

    __slots__ = (
        "requests", "windows_seen", "miss_frac",
        "drain_cycles", "drain_requests",
    )

    def __init__(self, requests: int, windows_seen: int, miss_frac) -> None:
        self.requests = requests
        self.windows_seen = windows_seen
        # Row-miss fraction of the DRAM traffic this phase replayed
        # through the bank state machines (None when the replay
        # produced no DRAM accesses).
        self.miss_frac = miss_frac
        self.drain_cycles = 0
        self.drain_requests = 0


class SampledAccounting:
    """Per-phase bookkeeping for sampled-fidelity runs.

    A sampled run (see :mod:`repro.sim.fidelity`) alternates measured
    detailed windows and functional fast-forward phases.  This
    accumulator records each window's ``(cycles, requests)`` — plus,
    optionally, the window's internal trajectory — and each
    fast-forward phase's request count, then integrates the total.

    Each fast-forward phase is extrapolated with the
    cycles-per-completed-request rate of the *nearest preceding*
    measured window (falling back to the run's pooled rate), with two
    corrections over the naive ``requests * rate``:

    **Row-hit drift.**  FR-FCFS row-hit rate is not stationary across
    a kernel — it moves with queue depth and access phase, so a
    window's average rate mispredicts the skipped tail whenever the
    tail's row-buffer locality differs from the window's.  When the
    window carries trajectory samples, the per-segment rate is fit
    (request-weighted least squares) against the segment's row-miss
    fraction, and the fit is projected onto the *replay-observed*
    row-miss mix of the skipped traffic.  Segments that saw an empty
    DRAM queue are excluded (they are drain-contaminated, not steady
    state), the slope is clamped non-negative (more row misses can
    never be faster), and the projected rate is clamped to the range
    the window actually exhibited.

    **Drain netting.**  After a freeze the in-flight requests drain in
    real (counted) cycles while the frozen ops are extrapolated — but
    in exact mode those two populations would have overlapped.  The
    drain's completed ops are therefore folded into the extrapolated
    population and the real drain cycles are netted out:
    ``max(0, rate * (skipped + drained) - drain_cycles)``.

    Degenerate inputs are safe by construction: zero-request windows
    fall back to the pooled rate, a run with no measured traffic
    anywhere extrapolates nothing (real cycles alone are reported),
    and kernels that finish inside their detailed share never record a
    fast-forward phase at all — there is no ``None``-rate or
    divide-by-zero path.
    """

    def __init__(self) -> None:
        self._windows: List[_Window] = []
        self._ff: List[_FastForward] = []
        self._estimated_kernels: List[Tuple[int, float]] = []
        self.window_requests = 0
        self.ff_requests = 0
        self.ff_noc_flits = 0

    def record_window(
        self, cycles: int, requests: int, segments=None
    ) -> None:
        """One measured detailed window: real cycles, real requests.

        *segments* optionally carries the window's internal trajectory
        as ``(cycles, requests, row_hits, row_accesses, queue_depth)``
        tuples per polling segment (time order); it feeds the row-hit
        drift correction.
        """
        if cycles < 0 or requests < 0:
            raise ValueError(
                f"window measurements cannot be negative: "
                f"cycles={cycles}, requests={requests}"
            )
        self._windows.append(_Window(cycles, requests, segments))
        self.window_requests += requests

    def record_fast_forward(
        self, requests: int, noc_flits: int = 0, miss_frac=None
    ) -> None:
        """One functional fast-forward phase (no simulated time).

        *miss_frac* is the row-miss fraction observed while replaying
        the skipped traffic through the DRAM row state (None when the
        replay generated no DRAM accesses); it is the projection
        target of the drift correction.
        """
        self._ff.append(_FastForward(requests, len(self._windows), miss_frac))
        self.ff_requests += requests
        self.ff_noc_flits += noc_flits

    def record_drain(self, cycles: int, requests: int) -> None:
        """The real post-freeze drain of the latest fast-forward phase."""
        if not self._ff:
            raise ValueError("record_drain requires a fast-forward phase")
        if cycles < 0 or requests < 0:
            raise ValueError(
                f"drain measurements cannot be negative: "
                f"cycles={cycles}, requests={requests}"
            )
        phase = self._ff[-1]
        phase.drain_cycles += cycles
        phase.drain_requests += requests

    def record_estimated_kernel(
        self, requests: int, cycles: float, noc_flits: int = 0
    ) -> None:
        """One fully-replayed kernel with externally-estimated cycles.

        The auto-fidelity path: a repeat kernel is replayed
        functionally and its cycles are transferred from its group's
        measured warm exemplars rather than extrapolated from a rate.
        """
        if requests < 0 or cycles < 0:
            raise ValueError(
                f"kernel estimates cannot be negative: "
                f"requests={requests}, cycles={cycles}"
            )
        self._estimated_kernels.append((requests, float(cycles)))
        self.ff_requests += requests
        self.ff_noc_flits += noc_flits

    @property
    def windows(self) -> int:
        return len(self._windows)

    @property
    def estimated_kernels(self) -> int:
        return len(self._estimated_kernels)

    def _pooled_rate(self) -> Optional[float]:
        cycles = requests = 0
        for window in self._windows:
            cycles += window.cycles
            requests += window.requests
        if requests:
            return cycles / requests
        return None

    @staticmethod
    def _drift_fit(window: _Window):
        """Fit segment rate against row-miss fraction.

        Returns ``(intercept, slope, lo, hi)`` or None when the window
        has too few usable segments or no miss-fraction variation.
        ``lo``/``hi`` bound the rates actually observed, clamping the
        projection.
        """
        points = []  # (miss_frac, rate, weight)
        for cycles, requests, hits, accesses, depth in window.segments:
            if requests <= 0 or accesses <= 0:
                continue
            if depth <= 0:
                # An empty DRAM queue means the segment is issue-starved
                # (ramp edge or drain), not steady state.
                continue
            points.append((1.0 - hits / accesses, cycles / requests, requests))
        if len(points) < 3:
            return None
        total_w = sum(w for _, _, w in points)
        mean_x = sum(x * w for x, _, w in points) / total_w
        mean_y = sum(y * w for _, y, w in points) / total_w
        var_x = sum(w * (x - mean_x) ** 2 for x, _, w in points) / total_w
        if var_x <= 1e-12:
            return None
        cov = sum(
            w * (x - mean_x) * (y - mean_y) for x, y, w in points
        ) / total_w
        slope = max(0.0, cov / var_x)
        intercept = mean_y - slope * mean_x
        rates = [y for _, y, _ in points]
        return intercept, slope, min(rates), max(rates)

    def _rate_for(self, phase: _FastForward) -> Optional[float]:
        """Corrected cycles-per-request rate for one fast-forward phase.

        Prefers the phase's *own* window — the immediately preceding
        one, which in the kernel-freeze scheme was measured inside the
        very kernel being extrapolated, so per-kernel heterogeneity is
        captured — drift-corrected onto the skipped traffic's row-miss
        mix when both the trajectory fit and the replay miss fraction
        are available.  Falls back to the run's pooled
        (request-weighted) rate when the window saw no traffic.
        """
        if phase.windows_seen:
            window = self._windows[phase.windows_seen - 1]
            rate = window.rate()
            if rate is not None:
                if phase.miss_frac is not None:
                    fit = self._drift_fit(window)
                    if fit is not None:
                        intercept, slope, lo, hi = fit
                        projected = intercept + slope * phase.miss_frac
                        return min(max(projected, lo), hi)
                return rate
        return self._pooled_rate()

    def extrapolated_cycles(self) -> int:
        """Estimated cycles of all skipped work (integer)."""
        total = 0.0
        for phase in self._ff:
            skipped = phase.requests
            if not skipped and not phase.drain_requests:
                continue
            rate = self._rate_for(phase)
            if rate is None:
                continue  # no measured traffic anywhere: nothing to scale
            # The drained ops are folded in and the real drain cycles
            # netted out — in exact mode the drain would have
            # overlapped the skipped ops, not run in series with them.
            estimate = rate * (skipped + phase.drain_requests)
            total += max(0.0, estimate - phase.drain_cycles)
        for _, cycles in self._estimated_kernels:
            total += cycles
        return int(round(total))

    def metadata(self) -> Dict[str, object]:
        """JSON-safe summary for the result record's metadata."""
        drained = sum(p.drain_requests for p in self._ff)
        corrected = sum(
            1 for p in self._ff
            if p.windows_seen and p.miss_frac is not None
            and self._drift_fit(self._windows[p.windows_seen - 1]) is not None
        )
        return {
            "windows": len(self._windows),
            "window_requests": self.window_requests,
            "ff_phases": len(self._ff),
            "ff_requests": self.ff_requests,
            "drift_corrected_phases": corrected,
            "drained_requests": drained,
            "estimated_kernels": len(self._estimated_kernels),
            "estimated_ff_cycles": self.extrapolated_cycles(),
        }


class MeanStat:
    """Streaming mean/max of a scalar (latency accounting)."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.count = 0
        self.total = 0
        self.max_value = 0

    def record(self, value: int) -> None:
        self.count += 1
        self.total += value
        if value > self.max_value:
            self.max_value = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0
