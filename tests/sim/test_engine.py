"""Unit tests for the discrete-event engine."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from engine_oracle import ReferenceEngine
from repro.sim.engine import Engine, SimulationError


def nothing(_arg):
    """An event that does nothing."""


class TestOrdering:
    def test_time_order(self):
        engine = Engine()
        fired = []
        engine.at_call(20, fired.append, "b")
        engine.at_call(10, fired.append, "a")
        engine.run()
        assert fired == ["a", "b"]
        assert engine.now == 20

    def test_fifo_within_cycle(self):
        engine = Engine()
        fired = []
        engine.at_call(5, fired.append, 1)
        engine.at_call(5, fired.append, 2)
        engine.at_call(5, fired.append, 3)
        engine.run()
        assert fired == [1, 2, 3]

    def test_after_is_relative(self):
        engine = Engine()
        times = []

        def later(delay):
            engine.after_call(delay, lambda _: times.append(engine.now), None)

        engine.at_call(10, later, 5)
        engine.run()
        assert times == [15]

    def test_events_scheduled_during_run(self):
        engine = Engine()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                engine.after_call(1, chain, n + 1)

        engine.at_call(0, chain, 0)
        engine.run()
        assert fired == [0, 1, 2, 3]

    def test_same_cycle_events_scheduled_from_callbacks_run_fifo(self):
        """An event scheduled *for the current cycle* from inside a
        callback runs this cycle, after everything already queued —
        the property the DRAM same-cycle submit batching rests on."""
        engine = Engine()
        fired = []

        def first(name):
            fired.append(name)
            engine.at_call(5, fired.append, "flush")

        engine.at_call(5, first, "a")
        engine.at_call(5, fired.append, "b")
        engine.at_call(6, fired.append, "next-cycle")
        engine.run()
        assert fired == ["a", "b", "flush", "next-cycle"]

    def test_zero_delay_after_is_same_cycle_fifo(self):
        engine = Engine()
        fired = []
        engine.at_call(3, lambda name: engine.after_call(0, fired.append, name),
                       "late")
        engine.at_call(3, fired.append, "early")
        engine.run()
        assert engine.now == 3
        assert fired == ["early", "late"]


class TestClosureFreeScheduling:
    def test_at_call_passes_arg(self):
        engine = Engine()
        fired = []
        engine.at_call(4, fired.append, "payload")
        engine.run()
        assert fired == ["payload"]
        assert engine.now == 4

    def test_after_call_is_relative(self):
        engine = Engine()
        fired = []
        engine.at_call(
            10, lambda _: engine.after_call(5, fired.append, engine.now), None
        )
        engine.run()
        assert fired == [10]
        assert engine.now == 15

    def test_none_is_a_valid_arg(self):
        engine = Engine()
        fired = []
        engine.at_call(1, fired.append, None)
        engine.run()
        assert fired == [None]

    def test_after_call_negative_delay_rejected(self):
        with pytest.raises(SimulationError, match="non-negative"):
            Engine().after_call(-1, nothing, None)


class TestTimeValidation:
    def test_whole_float_times_are_normalized(self):
        engine = Engine()
        fired = []
        engine.at_call(10.0, lambda _: fired.append(engine.now), None)
        engine.run()
        assert fired == [10]
        assert isinstance(engine.now, int)

    def test_fractional_time_raises_instead_of_truncating(self):
        engine = Engine()
        with pytest.raises(SimulationError, match="integral"):
            engine.at_call(10.5, nothing, None)
        assert engine.pending == 0

    def test_fractional_delay_raises(self):
        engine = Engine()
        with pytest.raises(SimulationError, match="integral"):
            engine.after_call(0.25, nothing, None)

    def test_fractional_at_call_raises(self):
        engine = Engine()
        with pytest.raises(SimulationError, match="integral"):
            engine.at_call(3.7, nothing, None)

    def test_non_numeric_time_raises_simulation_error(self):
        engine = Engine()
        with pytest.raises(SimulationError, match="integral"):
            engine.at_call("soon", nothing, None)

    def test_nan_and_inf_rejected(self):
        engine = Engine()
        for bogus in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(SimulationError, match="integral"):
                engine.at_call(bogus, nothing, None)

    def test_numpy_integral_scalar_accepted(self):
        np = pytest.importorskip("numpy")
        engine = Engine()
        fired = []
        engine.at_call(np.int64(7), lambda _: fired.append(engine.now), None)
        engine.run()
        assert fired == [7]


class TestLimits:
    def test_until_stops_clock(self):
        engine = Engine()
        fired = []
        engine.at_call(10, fired.append, 10)
        engine.at_call(100, fired.append, 100)
        engine.run(until=50)
        assert fired == [10]
        assert engine.now == 50
        assert engine.pending == 1

    def test_past_scheduling_rejected(self):
        engine = Engine()
        engine.at_call(10, nothing, None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.at_call(5, nothing, None)

    def test_past_scheduling_from_inside_callback_raises(self):
        """A callback that schedules into the past is a model bug; the
        error must surface out of run(), not be swallowed."""
        engine = Engine()
        engine.at_call(10, lambda _: engine.at_call(9, nothing, None), None)
        with pytest.raises(SimulationError, match="cannot schedule"):
            engine.run()
        assert engine.now == 10

    def test_negative_after_from_inside_callback_raises(self):
        engine = Engine()
        engine.at_call(4, lambda _: engine.after_call(-2, nothing, None), None)
        with pytest.raises(SimulationError, match="non-negative"):
            engine.run()

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Engine().after_call(-1, nothing, None)

    def test_queue_resumable_after_callback_error(self):
        """A propagating callback error consumes only the failing
        event; the rest of the cycle's FIFO survives and a later run()
        picks up exactly where the engine stopped."""
        engine = Engine()
        fired = []

        def boom(_):
            raise ValueError("model bug")

        engine.at_call(5, fired.append, "before")
        engine.at_call(5, boom, None)
        engine.at_call(5, fired.append, "after")
        with pytest.raises(ValueError, match="model bug"):
            engine.run()
        assert fired == ["before"]
        assert engine.pending == 1
        engine.run()
        assert fired == ["before", "after"]
        assert engine.pending == 0

    def test_nested_run_rejected(self):
        """run() is not re-entrant (the drain cursor is engine state);
        a callback that calls run() gets a clear error instead of
        silently replaying the current cycle."""
        engine = Engine()
        errors = []

        def nested(_):
            try:
                engine.run()
            except SimulationError as exc:
                errors.append(str(exc))

        fired = []
        engine.at_call(1, nested, None)
        engine.at_call(1, fired.append, "after")
        engine.run()
        assert errors and "re-entrant" in errors[0]
        assert fired == ["after"]  # outer run continues normally

    def test_events_processed_counter(self):
        engine = Engine()
        for t in range(5):
            engine.at_call(t, nothing, None)
        engine.run()
        assert engine.events_processed == 5


class TestCountersBetweenRuns:
    """``events_processed`` is counted locally inside ``run`` and stored
    when it returns or raises: between runs it and ``pending`` are
    exact, whichever way the run ended."""

    def test_after_normal_return(self):
        engine = Engine()

        def spawn(delays):
            if delays:
                engine.after_call(delays[0], spawn, delays[1:])

        engine.at_call(1, spawn, (0, 2))
        engine.at_call(1, spawn, ())
        engine.at_call(4, spawn, ())
        engine.run()
        assert engine.events_processed == 5
        assert engine.pending == 0
        assert engine.idle
        engine.after_call(1, spawn, ())
        assert engine.pending == 1
        engine.run()
        assert engine.events_processed == 6
        assert engine.pending == 0

    def test_after_until_pause(self):
        engine = Engine()
        for t in (1, 2, 3, 10, 11):
            engine.at_call(t, nothing, None)
        engine.run(until=5)
        assert (engine.events_processed, engine.pending) == (3, 2)
        assert not engine.idle
        engine.run()
        assert (engine.events_processed, engine.pending) == (5, 0)

    def test_after_callback_raises_mid_bucket(self):
        engine = Engine()
        fired = []

        def boom(_):
            raise ValueError("model bug")

        engine.at_call(5, fired.append, 1)
        engine.at_call(5, boom, None)
        engine.at_call(5, fired.append, 2)
        engine.at_call(6, fired.append, 3)
        with pytest.raises(ValueError):
            engine.run()
        # The failing event counts as processed; the rest stay queued.
        assert (engine.events_processed, engine.pending) == (2, 2)
        assert engine.now == 5
        engine.run()
        assert fired == [1, 2, 3]
        assert (engine.events_processed, engine.pending) == (4, 0)

    def test_clear_after_callback_raises_mid_bucket(self):
        """``clear`` drops what a failed run left queued, the rest of
        the failing cycle included; the clock and counters stay, and
        the engine runs on."""
        engine = Engine()
        fired = []

        def boom(_):
            raise ValueError("model bug")

        engine.at_call(5, boom, None)
        engine.at_call(5, fired.append, 1)
        engine.at_call(6, fired.append, 2)
        with pytest.raises(ValueError):
            engine.run()
        engine.clear()
        assert (engine.events_processed, engine.pending, engine.now) == (1, 0, 5)
        assert engine.idle
        engine.after_call(1, fired.append, 3)
        engine.run()
        assert fired == [3]

        def clear_inside(_):
            engine.clear()

        engine.after_call(1, clear_inside, None)
        with pytest.raises(SimulationError, match="while run"):
            engine.run()

    def test_now_is_a_plain_int_attribute(self):
        engine = Engine()
        seen = []
        engine.at_call(7, lambda _: seen.append(engine.now), None)
        engine.at_call(12, nothing, None)
        engine.run(until=9)
        assert seen == [7]
        assert engine.now == 9 and type(engine.now) is int


# ----------------------------------------------------------------------
# The bucket engine against an independent oracle
# ----------------------------------------------------------------------
class Boom(Exception):
    """A model error raised by a scheduled callback."""


# An event node: (delay from its parent, whether it raises, children).
# Roots carry an absolute cycle instead of a delay.
_node = st.recursive(
    st.tuples(st.integers(0, 3), st.booleans(), st.just(())),
    lambda children: st.tuples(
        st.integers(0, 3), st.booleans(),
        st.lists(children, max_size=3).map(tuple),
    ),
    max_leaves=12,
)
_runs = st.lists(
    st.one_of(st.none(), st.integers(0, 4)),  # until, relative to now
    min_size=1, max_size=6,
)


class Program:
    """Plays one random event forest on an engine, logging dispatches.

    Every event logs ``(cycle, name)``, then schedules its children
    (alternating ``at_call`` and ``after_call``, so delay-0 children
    land in the current cycle's bucket, also from its last event), then
    raises if its node says so.
    """

    def __init__(self, engine, roots):
        self.engine = engine
        self.log = []
        self._fire_cb = self._fire
        for index, (time, node) in enumerate(roots):
            engine.at_call(time, self._fire_cb, (str(index), node))

    def _fire(self, item):
        name, (_, raises, children) = item
        engine = self.engine
        self.log.append((engine.now, name))
        for k, child in enumerate(children):
            entry = (f"{name}.{k}", child)
            if k % 2:
                engine.after_call(child[0], self._fire_cb, entry)
            else:
                engine.at_call(engine.now + child[0], self._fire_cb, entry)
        if raises:
            raise Boom(name)

    def run(self, until):
        """One ``run`` call; returns the error it raised, if any."""
        bound = None if until is None else self.engine.now + until
        try:
            self.engine.run(until=bound)
        except Boom as error:
            return type(error).__name__, str(error)
        return None

    def observed(self):
        engine = self.engine
        return (list(self.log), engine.now, engine.events_processed,
                engine.pending, engine.idle)


@settings(max_examples=200, deadline=None)
@given(roots=st.lists(st.tuples(st.integers(0, 4), _node), max_size=6),
       runs=_runs)
def test_bucket_engine_matches_heap_oracle(roots, runs):
    """Same random schedules, same dispatch order and counters.

    The forest covers same-cycle scheduling from callbacks, ``until``
    pauses, and callbacks that raise mid-bucket followed by resumed
    runs; after every ``run`` both
    engines must agree on the log, ``now``, ``events_processed``,
    ``pending`` and ``idle``.
    """
    real = Program(Engine(), roots)
    oracle = Program(ReferenceEngine(), roots)
    assert real.observed() == oracle.observed()
    # The given runs, then unbounded ones until both queues drain: each
    # resumed run consumes at least one event, so this terminates.
    drains = [None] * (1 + 13 * len(roots))
    for until in runs + drains:
        outcome = real.run(until)
        assert outcome == oracle.run(until)
        assert real.observed() == oracle.observed()
        if real.engine.idle and until is None:
            break
    assert real.engine.idle and real.engine.pending == 0
