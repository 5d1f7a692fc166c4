"""Unit tests for the discrete-event engine."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from engine_oracle import ReferenceEngine
from repro.sim.engine import Engine, SimulationError


class TestOrdering:
    def test_time_order(self):
        engine = Engine()
        fired = []
        engine.at(20, lambda: fired.append("b"))
        engine.at(10, lambda: fired.append("a"))
        engine.run()
        assert fired == ["a", "b"]
        assert engine.now == 20

    def test_fifo_within_cycle(self):
        engine = Engine()
        fired = []
        engine.at(5, lambda: fired.append(1))
        engine.at(5, lambda: fired.append(2))
        engine.at(5, lambda: fired.append(3))
        engine.run()
        assert fired == [1, 2, 3]

    def test_after_is_relative(self):
        engine = Engine()
        times = []
        engine.at(10, lambda: engine.after(5, lambda: times.append(engine.now)))
        engine.run()
        assert times == [15]

    def test_events_scheduled_during_run(self):
        engine = Engine()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                engine.after(1, lambda: chain(n + 1))

        engine.at(0, lambda: chain(0))
        engine.run()
        assert fired == [0, 1, 2, 3]

    def test_same_cycle_events_scheduled_from_callbacks_run_fifo(self):
        """An event scheduled *for the current cycle* from inside a
        callback runs this cycle, after everything already queued —
        the property the DRAM same-cycle submit batching rests on."""
        engine = Engine()
        fired = []
        engine.at(5, lambda: (fired.append("a"),
                              engine.at(5, lambda: fired.append("flush"))))
        engine.at(5, lambda: fired.append("b"))
        engine.at(6, lambda: fired.append("next-cycle"))
        engine.run()
        assert fired == ["a", "b", "flush", "next-cycle"]

    def test_zero_delay_after_is_same_cycle_fifo(self):
        engine = Engine()
        fired = []
        engine.at(3, lambda: engine.after(0, lambda: fired.append("late")))
        engine.at(3, lambda: fired.append("early"))
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
        engine.at(10, lambda: engine.after_call(5, fired.append, engine.now))
        engine.run()
        assert fired == [10]
        assert engine.now == 15

    def test_none_is_a_valid_arg(self):
        engine = Engine()
        fired = []
        engine.at_call(1, fired.append, None)
        engine.run()
        assert fired == [None]

    def test_fifo_order_interleaves_both_forms(self):
        """at() and at_call() events on one cycle share one FIFO."""
        engine = Engine()
        fired = []
        engine.at(3, lambda: fired.append("a"))
        engine.at_call(3, fired.append, "b")
        engine.at(3, lambda: fired.append("c"))
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_after_call_negative_delay_rejected(self):
        with pytest.raises(SimulationError, match="non-negative"):
            Engine().after_call(-1, print, None)


class TestTimeValidation:
    def test_whole_float_times_are_normalized(self):
        engine = Engine()
        fired = []
        engine.at(10.0, lambda: fired.append(engine.now))
        engine.run()
        assert fired == [10]
        assert isinstance(engine.now, int)

    def test_fractional_time_raises_instead_of_truncating(self):
        engine = Engine()
        with pytest.raises(SimulationError, match="integral"):
            engine.at(10.5, lambda: None)
        assert engine.pending == 0

    def test_fractional_delay_raises(self):
        engine = Engine()
        with pytest.raises(SimulationError, match="integral"):
            engine.after(0.25, lambda: None)

    def test_fractional_at_call_raises(self):
        engine = Engine()
        with pytest.raises(SimulationError, match="integral"):
            engine.at_call(3.7, print, None)

    def test_non_numeric_time_raises_simulation_error(self):
        engine = Engine()
        with pytest.raises(SimulationError, match="integral"):
            engine.at("soon", lambda: None)

    def test_nan_and_inf_rejected(self):
        engine = Engine()
        for bogus in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(SimulationError, match="integral"):
                engine.at(bogus, lambda: None)

    def test_numpy_integral_scalar_accepted(self):
        np = pytest.importorskip("numpy")
        engine = Engine()
        fired = []
        engine.at(np.int64(7), lambda: fired.append(engine.now))
        engine.run()
        assert fired == [7]


class TestLimits:
    def test_until_stops_clock(self):
        engine = Engine()
        fired = []
        engine.at(10, lambda: fired.append(10))
        engine.at(100, lambda: fired.append(100))
        engine.run(until=50)
        assert fired == [10]
        assert engine.now == 50
        assert engine.pending == 1

    def test_past_scheduling_rejected(self):
        engine = Engine()
        engine.at(10, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.at(5, lambda: None)

    def test_past_scheduling_from_inside_callback_raises(self):
        """A callback that schedules into the past is a model bug; the
        error must surface out of run(), not be swallowed."""
        engine = Engine()
        engine.at(10, lambda: engine.at(9, lambda: None))
        with pytest.raises(SimulationError, match="cannot schedule"):
            engine.run()
        assert engine.now == 10

    def test_negative_after_from_inside_callback_raises(self):
        engine = Engine()
        engine.at(4, lambda: engine.after(-2, lambda: None))
        with pytest.raises(SimulationError, match="non-negative"):
            engine.run()

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Engine().after(-1, lambda: None)

    def test_queue_resumable_after_callback_error(self):
        """A propagating callback error consumes only the failing
        event; the rest of the cycle's FIFO survives and a later run()
        picks up exactly where the engine stopped."""
        engine = Engine()
        fired = []

        def boom():
            raise ValueError("model bug")

        engine.at(5, lambda: fired.append("before"))
        engine.at(5, boom)
        engine.at(5, lambda: fired.append("after"))
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

        def nested():
            try:
                engine.run()
            except SimulationError as exc:
                errors.append(str(exc))

        fired = []
        engine.at(1, nested)
        engine.at(1, lambda: fired.append("after"))
        engine.run()
        assert errors and "re-entrant" in errors[0]
        assert fired == ["after"]  # outer run continues normally

    def test_events_processed_counter(self):
        engine = Engine()
        for t in range(5):
            engine.at(t, lambda: None)
        engine.run()
        assert engine.events_processed == 5


class TestCountersBetweenRuns:
    """``events_processed`` is counted locally inside ``run`` and stored
    when it returns or raises: between runs it and ``pending`` are
    exact, whichever way the run ended."""

    def test_after_normal_return(self):
        engine = Engine()
        engine.at(1, lambda: engine.at(1, lambda: engine.after(2, lambda: None)))
        engine.at_call(1, lambda _arg: None, None)
        engine.at(4, lambda: None)
        engine.run()
        assert engine.events_processed == 5
        assert engine.pending == 0
        assert engine.idle
        engine.after(1, lambda: None)
        assert engine.pending == 1
        engine.run()
        assert engine.events_processed == 6
        assert engine.pending == 0

    def test_after_until_pause(self):
        engine = Engine()
        for t in (1, 2, 3, 10, 11):
            engine.at(t, lambda: None)
        engine.run(until=5)
        assert (engine.events_processed, engine.pending) == (3, 2)
        assert not engine.idle
        engine.run()
        assert (engine.events_processed, engine.pending) == (5, 0)

    def test_after_callback_raises_mid_bucket(self):
        engine = Engine()
        fired = []

        def boom():
            raise ValueError("model bug")

        engine.at(5, lambda: fired.append(1))
        engine.at(5, boom)
        engine.at(5, lambda: fired.append(2))
        engine.at(6, lambda: fired.append(3))
        with pytest.raises(ValueError):
            engine.run()
        # The failing event counts as processed; the rest stay queued.
        assert (engine.events_processed, engine.pending) == (2, 2)
        assert engine.now == 5
        engine.run()
        assert fired == [1, 2, 3]
        assert (engine.events_processed, engine.pending) == (4, 0)

    def test_now_is_a_plain_int_attribute(self):
        engine = Engine()
        seen = []
        engine.at(7, lambda: seen.append(engine.now))
        engine.at(12, lambda: None)
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
    (rotating through ``at_call``, ``after_call`` and ``after``, so
    delay-0 children land in the current cycle's bucket, also from its
    last event), then raises if its node says so.
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
            form = k % 3
            if form == 0:
                engine.at_call(engine.now + child[0], self._fire_cb, entry)
            elif form == 1:
                engine.after_call(child[0], self._fire_cb, entry)
            else:
                engine.after(child[0], lambda entry=entry: self._fire(entry))
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
