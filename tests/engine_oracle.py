"""A reference event engine: one heap of ``(time, seq, fn, arg)``.

It knows nothing of :class:`repro.sim.engine.Engine`'s per-cycle
buckets or its drain cursor: every event is one heap entry, popped and
counted before its callback runs.  ``tests/sim/test_engine.py`` drives
both engines with the same random schedules and compares them.

The contract it implements is the engine's:

* events run in time order, FIFO among same-cycle events (the
  sequence number breaks ties), including events a callback schedules
  for the current cycle;
* ``run(until=...)`` stops before the first event after *until* and
  moves the clock to *until*;
* a raising callback counts as processed, and the events behind it
  stay queued for the next ``run``.
"""

from heapq import heappop, heappush

from repro.sim.engine import SimulationError


class ReferenceEngine:
    def __init__(self):
        self.now = 0
        self.events_processed = 0
        self._heap = []
        self._seq = 0

    @property
    def pending(self):
        return len(self._heap)

    @property
    def idle(self):
        return not self._heap

    def at_call(self, time, fn, arg):
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at {time}, current time is {self.now}"
            )
        heappush(self._heap, (time, self._seq, fn, arg))
        self._seq += 1

    def after_call(self, delay, fn, arg):
        self.at_call(self.now + delay, fn, arg)

    def run(self, until=None):
        while self._heap:
            time, _, fn, arg = self._heap[0]
            if until is not None and time > until:
                self.now = max(self.now, until)
                break
            heappop(self._heap)
            self.now = time
            self.events_processed += 1
            fn(arg)
        return self.now
