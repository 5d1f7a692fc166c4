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
Two forms schedule work; both accept only integral times and preserve
same-cycle FIFO order between each other:

``at(time, callback)`` / ``after(delay, callback)``
    The general form: *callback* is invoked with no arguments.  Use it
    when a closure is natural or the call site is cold.

``at_call(time, fn, arg)`` / ``after_call(delay, fn, arg)``
    The closure-free fast path for hot components: *fn* is invoked as
    ``fn(arg)``.  Callers pre-bind methods once (``self._cb =
    self._tick``) and pass the varying state as *arg*, so scheduling an
    event allocates no lambda and no bound method.  ``arg`` may be any
    object, including ``None``.

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
* ``events_processed`` is counted in a local inside ``run`` and stored
  when ``run`` returns or raises, so it and ``pending`` are exact
  between ``run`` calls, including after ``max_events`` exhaustion and
  after a callback error.  Inside a callback they are not updated.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional

__all__ = ["Engine", "SimulationError"]

Callback = Callable[[], None]

# Bucket slot marker for argument-less callbacks: buckets are flat
# lists [fn0, arg0, fn1, arg1, ...] and _NO_ARG in the arg slot means
# "call fn with no arguments".
_NO_ARG = object()


class SimulationError(RuntimeError):
    """Raised for scheduling bugs (events in the past, runaway loops)."""


class Engine:
    """A global-clock discrete-event engine.

    Examples
    --------
    >>> engine = Engine()
    >>> fired = []
    >>> engine.at(10, lambda: fired.append(engine.now))
    >>> engine.run()
    >>> fired
    [10]
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
        self._active_index = 0
        self._scheduled = 0
        self._events_processed = 0
        self._running = False

    @property
    def events_processed(self) -> int:
        """Events executed so far (exact between ``run`` calls)."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of events not yet executed (exact between ``run`` calls)."""
        return self._scheduled - self._events_processed

    @property
    def idle(self) -> bool:
        """True when the queue is drained (and ``run`` is not active).

        ``run`` may be called again after it returns — the clock keeps
        advancing monotonically across calls.  This is the pause/resume
        contract the sampled-fidelity mode builds on: each detailed
        sample window schedules its work, drains to idle, and the next
        window resumes on the same warm engine (``until`` /
        ``max_events`` bound a window when a model misbehaves).
        """
        return not self._running and self._scheduled == self._events_processed

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    # The four scheduling methods share one body, written out in each:
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

    def at(self, time: int, callback: Callback) -> None:
        """Schedule *callback* (no arguments) at absolute cycle *time*."""
        if type(time) is not int:
            time = self._checked_time(time)
        if time < self.now:
            raise self._past_error(time)
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [callback, _NO_ARG]
            heappush(self._times, time)
        else:
            bucket += (callback, _NO_ARG)
        self._scheduled += 1

    def after(self, delay: int, callback: Callback) -> None:
        """Schedule *callback* *delay* cycles from now."""
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        self.at(self.now + delay, callback)

    def at_call(self, time: int, fn: Callable[[Any], None], arg: Any) -> None:
        """Closure-free fast path: schedule ``fn(arg)`` at cycle *time*."""
        if type(time) is not int:
            time = self._checked_time(time)
        if time < self.now:
            raise self._past_error(time)
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [fn, arg]
            heappush(self._times, time)
        else:
            bucket += (fn, arg)
        self._scheduled += 1

    def after_call(self, delay: int, fn: Callable[[Any], None], arg: Any) -> None:
        """Closure-free fast path: schedule ``fn(arg)`` *delay* cycles from now."""
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        time = self.now + delay
        if type(time) is not int:
            time = self._checked_time(time)
        # A non-negative delay cannot land in the past.
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [fn, arg]
            heappush(self._times, time)
        else:
            bucket += (fn, arg)
        self._scheduled += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Execute events until the queue drains (or limits hit).

        Returns the final simulation time.  *until* stops the clock at
        a cycle bound; *max_events* guards against runaway models.  The
        budget is counted down in integers — no float arithmetic on the
        hot path, and ``max_events=None`` means unlimited.

        ``run`` is not re-entrant: the bucket drain cursor is engine
        state, so calling ``run`` from inside a callback would replay
        the current cycle's already-dispatched events.  Nested calls
        raise :class:`SimulationError` instead.
        """
        if self._running:
            raise SimulationError("Engine.run() is not re-entrant")
        budget = -1 if max_events is None else max_events
        buckets = self._buckets
        times = self._times
        no_arg = _NO_ARG
        processed = self._events_processed
        self._running = True
        try:
            while True:
                bucket = self._active_bucket
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
                i = self._active_index
                try:
                    # The bucket may grow while draining (same-cycle
                    # scheduling from callbacks); re-checking len() each
                    # iteration picks those up in FIFO order.
                    while i < len(bucket):
                        fn = bucket[i]
                        arg = bucket[i + 1]
                        i += 2
                        processed += 1
                        if arg is no_arg:
                            fn()
                        else:
                            fn(arg)
                        if budget >= 0:
                            budget -= 1
                            if budget <= 0 and self._scheduled > processed:
                                # Only a *pending* queue at exhaustion is an
                                # error: a model that finishes on exactly its
                                # last allowed event completed, it did not
                                # livelock.
                                raise SimulationError(
                                    f"exceeded max_events={max_events} (possible "
                                    f"livelock) at cycle {self.now}"
                                )
                finally:
                    # Persist the cursor so a propagating callback error
                    # leaves the queue resumable (the failing event is
                    # consumed, later events remain).
                    self._active_index = i
                del buckets[self.now]
                self._active_bucket = None
        finally:
            self._events_processed = processed
            self._running = False
        return self.now
