"""Discrete-event simulation core.

A minimal, fast event engine: callbacks scheduled at integer cycle
timestamps, executed in time order (FIFO among same-cycle events, by
insertion sequence).  Every component of the GPU/DRAM model shares one
engine, so "time" is globally consistent.

Internally the queue is a hybrid calendar/bucket queue: events landing
on the same cycle are appended to that cycle's FIFO bucket, and a heap
orders only the *distinct* pending cycles.  A burst of N same-cycle
events therefore costs N list appends plus one heap push, instead of N
heap pushes of ``(time, seq, callback)`` tuples.

Scheduling API contract
-----------------------
One form schedules work: ``at_call(time, fn, arg)`` /
``after_call(delay, fn, arg)`` invoke ``fn(arg)``.  Callers pre-bind
methods once (``self._cb = self._tick``) and pass the varying state as
*arg*, so scheduling an event allocates no lambda and no bound method.
``arg`` may be any object, including ``None``.

Times must be integral: an ``int``, or a float/numpy scalar whose value
is a whole number (normalized to ``int``).  A fractional time raises
:class:`SimulationError` instead of being silently truncated.

Hot-path contract
-----------------
The per-event path is kept flat: scheduling is one method frame, and
``run`` dispatches each event with no further engine frames.  What
callers may rely on:

* The event stream is fixed by the model alone: the same events run at
  the same cycles in the same FIFO order, so ``events_processed`` is
  part of every result's bytes.
* ``now`` is a plain attribute, read-only to everyone but the engine.
  It holds the cycle of the event being dispatched (or the ``until``
  bound a paused ``run`` stopped at).
* A bucket is a list of ``(fn, arg)`` pairs, drained by ``for fn, arg
  in cursor: fn(arg)`` over one list iterator (which also yields pairs
  appended meanwhile) and counted into ``events_processed`` once per
  bucket.  A raise leaves the cursor at ``len(bucket) -
  length_hint(cursor)``; a failing event counts as processed.
* ``pending`` (the queued buckets' sum) and ``idle`` (not running, no
  pending cycle, active bucket drained; O(1)) are derived, not counted.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import islice
from operator import length_hint
from typing import Any, Callable, Dict, List, Optional

__all__ = ["Engine", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for scheduling bugs (events in the past, runaway loops)."""


class Engine:
    """A global-clock discrete-event engine.

    Examples
    --------
    >>> engine = Engine()
    >>> fired = []
    >>> engine.at_call(10, fired.append, "ping")
    >>> engine.run()
    >>> fired
    ['ping']
    """

    def __init__(self) -> None:
        # Current simulation time in cycles (read-only outside the engine).
        self.now = 0
        # Calendar queue state: bucket per pending cycle, heap of the
        # distinct cycle numbers.  While a cycle's bucket is being
        # drained it stays in _buckets (so same-cycle scheduling
        # appends behind the cursor) but its time is off the heap.
        self._buckets: Dict[int, List[Any]] = {}
        self._times: List[int] = []
        self._active_bucket: Optional[List[Any]] = None
        self._active_index = 0  # its cursor (a list index)
        self._events_processed = 0
        self._running = False

    @property
    def events_processed(self) -> int:
        """Events executed so far (exact between ``run`` calls)."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of events not yet executed (exact between ``run`` calls)."""
        queued = sum(len(bucket) for bucket in self._buckets.values())
        if self._active_bucket is not None:
            queued -= self._active_index
        return queued

    @property
    def idle(self) -> bool:
        """True when the queue is drained (and ``run`` is not active).

        ``run`` may be called again after it returns — the clock keeps
        advancing monotonically across calls.  This is the pause/resume
        contract auto fidelity builds on: a measured kernel runs in
        ``until``-bounded polls, may freeze between two of them, and
        resumes on the same warm engine.
        """
        bucket = self._active_bucket
        return not self._running and not self._times and (
            bucket is None or self._active_index == len(bucket)
        )

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    # The two scheduling methods share one body, written out in each:
    # normalize the time, reject the past, append (fn, arg) to the
    # cycle's bucket.  A shared helper would cost every event a frame.
    def _checked_time(self, time: Any) -> int:
        """Normalize *time* to an int; reject fractional or bogus values."""
        try:
            itime = int(time)
        except (TypeError, ValueError, OverflowError):
            raise SimulationError(
                f"event time must be an integral number, got {time!r}"
            ) from None
        if itime != time:
            raise SimulationError(
                f"event time must be integral, got {time!r}"
            )
        return itime

    def _past_error(self, time: int) -> SimulationError:
        return SimulationError(
            f"cannot schedule event at {time}, current time is {self.now}"
        )

    def at_call(self, time: int, fn: Callable[[Any], None], arg: Any) -> None:
        """Schedule ``fn(arg)`` at absolute cycle *time*."""
        if type(time) is not int:
            time = self._checked_time(time)
        if time < self.now:
            raise self._past_error(time)
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [(fn, arg)]
            heappush(self._times, time)
        else:
            bucket.append((fn, arg))

    def after_call(self, delay: int, fn: Callable[[Any], None], arg: Any) -> None:
        """Schedule ``fn(arg)`` *delay* cycles from now."""
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        time = self.now + delay
        if type(time) is not int:
            time = self._checked_time(time)
        # A non-negative delay cannot land in the past.
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [(fn, arg)]
            heappush(self._times, time)
        else:
            bucket.append((fn, arg))

    def clear(self) -> None:
        """Discard every pending event; the clock and counters stay.

        Each queued event holds a component's callback, so a run that
        failed mid-cycle clears its queue to let reference counting
        free the machine.
        """
        if self._running:
            raise SimulationError("cannot clear the queue while run() is active")
        self._buckets.clear()
        self._times.clear()
        self._active_bucket = None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None) -> int:
        """Execute events until the queue drains or the clock passes *until*.

        Returns the final simulation time.  *until* stops the clock at
        a cycle bound.

        ``run`` is not re-entrant: the bucket drain cursor is engine
        state, so calling ``run`` from inside a callback would replay
        the current cycle's already-dispatched events.  Nested calls
        raise :class:`SimulationError` instead.
        """
        if self._running:
            raise SimulationError("Engine.run() is not re-entrant")
        buckets = self._buckets
        times = self._times
        processed = self._events_processed
        self._running = True
        try:
            while True:
                bucket = self._active_bucket
                start = 0
                if bucket is None:
                    if not times:
                        break
                    time = times[0]
                    if until is not None and time > until:
                        if until > self.now:
                            self.now = until
                        break
                    heappop(times)
                    self.now = time
                    bucket = buckets[time]
                    self._active_bucket = bucket
                    self._active_index = 0
                else:
                    start = self._active_index
                cursor = iter(bucket)
                if start:  # resume after a raise
                    next(islice(cursor, start, start), None)
                try:
                    for fn, arg in cursor:
                        fn(arg)
                except BaseException:  # the events behind it stay queued
                    self._active_index = len(bucket) - length_hint(cursor)
                    processed += self._active_index - start
                    raise
                processed += len(bucket) - start
                del buckets[self.now]
                self._active_bucket = None
        finally:
            self._events_processed = processed
            self._running = False
        return self.now
