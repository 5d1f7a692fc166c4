"""Unit tests for time-integrated parallelism metrics.

The tracker cases pin the oracle (``tests/parallelism_oracle.py``);
the interval cases pin :func:`repro.sim.metrics.busy_time`, and the
properties pin the one to the other.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parallelism_oracle import OutstandingTracker, combined_parallelism
from repro.sim.metrics import busy_time


class TestOutstandingTracker:
    def test_single_unit_always_busy(self):
        t = OutstandingTracker(4)
        t.change(0, +1, 0)
        assert t.value(100) == pytest.approx(1.0)

    def test_two_units_half_overlap(self):
        """Unit 0 busy [0,100); unit 1 busy [50,100): average = 1.5."""
        t = OutstandingTracker(4)
        t.change(0, +1, 0)
        t.change(1, +1, 50)
        assert t.value(100) == pytest.approx(1.5)

    def test_conditioning_on_active_time(self):
        """Idle gaps don't dilute the average (paper's definition)."""
        t = OutstandingTracker(4)
        t.change(0, +1, 0)
        t.change(0, -1, 10)
        # idle 10..90
        t.change(0, +1, 90)
        assert t.value(100) == pytest.approx(1.0)
        assert t.active_fraction(100) == pytest.approx(0.2)

    def test_multiple_outstanding_on_one_unit_counts_once(self):
        """The metric counts busy *units*, not queued requests."""
        t = OutstandingTracker(4)
        t.change(0, +1, 0)
        t.change(0, +1, 0)
        t.change(0, -1, 50)
        assert t.value(100) == pytest.approx(1.0)

    def test_peak(self):
        t = OutstandingTracker(4)
        t.change(0, +1, 0)
        t.change(1, +1, 1)
        t.change(2, +1, 2)
        t.change(1, -1, 3)
        assert t.peak == 3

    def test_underflow_rejected(self):
        t = OutstandingTracker(2)
        with pytest.raises(ValueError):
            t.change(0, -1, 0)

    def test_time_regression_rejected(self):
        t = OutstandingTracker(2)
        t.change(0, +1, 50)
        with pytest.raises(ValueError):
            t.change(0, +1, 10)

    def test_never_active(self):
        assert OutstandingTracker(2).value(100) == 0.0

    def test_zero_units_rejected(self):
        with pytest.raises(ValueError):
            OutstandingTracker(0)


class TestCombined:
    def test_busy_time_weighted_mean(self):
        """Per-channel bank parallelism combines by busy time."""
        a = OutstandingTracker(4)  # 2 units busy for 100 cycles
        a.change(0, +1, 0)
        a.change(1, +1, 0)
        a.change(0, -1, 100)
        a.change(1, -1, 100)
        b = OutstandingTracker(4)  # 4 units busy for 100 cycles
        for u in range(4):
            b.change(u, +1, 0)
        for u in range(4):
            b.change(u, -1, 100)
        assert combined_parallelism([a, b], 100) == pytest.approx(3.0)

    def test_idle_channel_ignored(self):
        a = OutstandingTracker(4)
        a.change(0, +1, 0)
        idle = OutstandingTracker(4)
        assert combined_parallelism([a, idle], 100) == pytest.approx(1.0)

    def test_all_idle(self):
        assert combined_parallelism([OutstandingTracker(2)], 50) == 0.0


class TestBusyTime:
    def test_union_of_one_unit(self):
        # [0,10) and [5,20) overlap; [30,35) after an idle gap.
        assert busy_time([0, 5, 30], [10, 20, 35]) == 25

    def test_units_sum_their_own_unions(self):
        """Unit 0 busy [0,100); unit 1 busy [50,100): 150 unit-cycles."""
        assert busy_time([0, 50], [100, 100], units=[0, 1]) == 150
        assert busy_time([0, 50], [100, 100]) == 100

    def test_nested_and_zero_length(self):
        assert busy_time([0, 10, 40, 40], [50, 20, 40, 45]) == 50
        assert busy_time([7], [7]) == 0

    def test_empty(self):
        assert busy_time([], []) == 0
        assert busy_time([], [], units=[]) == 0

    def test_interval_ending_before_its_start_rejected(self):
        with pytest.raises(ValueError, match="ends before it starts"):
            busy_time([0, 10], [5, 9], units=[0, 1])


def _feed(tracker, intervals):
    """Feed ``(unit, start, end)`` *intervals* to *tracker* in time order.

    At equal times every +1 comes before any -1, so a zero-length
    interval (or one that starts as its unit's last one ends) never
    drops a count below zero; the order inside one cycle integrates
    nothing either way.
    """
    changes = sorted(
        [(start, +1, unit) for unit, start, _ in intervals]
        + [(end, -1, unit) for unit, _, end in intervals],
        key=lambda change: (change[0], -change[1]),
    )
    for time, delta, unit in changes:
        tracker.change(unit, delta, time)


# (unit, start, length): small ranges make same-cycle starts and ends,
# nesting, zero lengths and idle gaps common.
_interval = st.tuples(
    st.integers(0, 63), st.integers(0, 400), st.integers(0, 40)
).map(lambda t: (t[0], t[1], t[1] + t[2]))


@settings(max_examples=200, deadline=None)
@given(st.lists(_interval, max_size=120))
@example([])
@example([(0, 5, 5)])  # zero-length only
@example([(0, 0, 100), (0, 10, 20)])  # nested in one unit
@example([(0, 0, 10), (1, 0, 10), (0, 10, 20)])  # same-cycle end/start
@example([(3, 0, 10), (3, 90, 100)])  # idle gap
@example([(u, u, u + 70) for u in range(64)])  # many units
def test_interval_integration_matches_tracker(intervals):
    """Sum and union of busy intervals equal the +1/-1 tracker's integrals."""
    units = [u for u, _, _ in intervals]
    starts = [s for _, s, _ in intervals]
    ends = [e for _, _, e in intervals]
    tracker = OutstandingTracker(64)
    _feed(tracker, intervals)
    horizon = max(ends, default=0) + 5
    busy = busy_time(starts, ends, units)
    active = busy_time(starts, ends)
    assert busy == tracker.busy_unit_integral
    assert active == tracker.active_time
    assert (busy / active if active else 0.0) == tracker.value(horizon)


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 7), _interval).map(lambda t: (t[0], *t[1])),
    max_size=120,
))
@example([(0, 0, 0, 10), (1, 5, 5, 30), (1, 5, 10, 20)])
def test_grouped_integration_matches_combined_trackers(intervals):
    """Bank parallelism: unit-busy time over group-busy time, per group."""
    groups = [g for g, _, _, _ in intervals]
    units = [g * 64 + u for g, u, _, _ in intervals]
    starts = [s for _, _, s, _ in intervals]
    ends = [e for _, _, _, e in intervals]
    trackers = [OutstandingTracker(64) for _ in range(8)]
    for group, tracker in enumerate(trackers):
        _feed(tracker, [iv[1:] for iv in intervals if iv[0] == group])
    horizon = max(ends, default=0) + 5
    expected = combined_parallelism(trackers, horizon)
    active = busy_time(starts, ends, groups)
    measured = busy_time(starts, ends, units) / active if active else 0.0
    assert measured == expected
