"""The in-process memo of warmed-state replay streams.

The ``--fidelity auto`` mode replays every estimated kernel that a later
detailed kernel follows, to keep the L1/LLC/DRAM-row state warm (see
:mod:`repro.sim.auto`).  The input of that replay — the kernel's
merged, wave-ordered op stream (:class:`~repro.sim.replay.KernelStream`)
— is a pure function of the workload and the machine geometry, **never
of the mapping scheme**, so :meth:`RunContext.auto
<repro.runner.worker.RunContext.auto>` keys streams by the plain tuple
``(workload spec, scale, memory, n_sms, kernel index, wave capacity)``
and a 6-scheme sweep builds each kernel's stream once.  Each
:class:`~repro.runner.worker.RunContext` owns one memo, so every auto
run of a process shares streams: inline sweeps, pool workers and
``repro serve`` alike, with or without a result cache.  The warmed
tag/row state itself is *not* memoized: tags hold scheme-mapped lines.

The memo is an LRU bounded at :data:`_MEMO_CAP` streams, locked
because a ``repro serve`` process's inline runners share one context
across threads.  Streams are read-only after construction, so sharing
one object between runs is safe.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional, Sequence

from ..sim import replay
from .cache import CacheStats

__all__ = ["StateCache"]

# Streams kept per process; the least recently used one goes first.
_MEMO_CAP = 128


class StateCache:
    """Warmed-state replay streams keyed by a scheme-free tuple."""

    def __init__(self) -> None:
        self.stats = CacheStats()
        self._memo: "OrderedDict[tuple, replay.KernelStream]" = OrderedDict()
        self._lock = threading.Lock()

    def stream(
        self, key: tuple, tbs: Sequence, wave_cap: int
    ) -> replay.KernelStream:
        """The stream under *key*, built from *tbs* and kept on a miss."""
        stream = self.get(key)
        if stream is None:
            stream = replay.build_kernel_stream(tbs, wave_cap)
            self.put(key, stream)
        return stream

    def get(self, key: tuple) -> Optional[replay.KernelStream]:
        """The stream stored under *key*; None on miss."""
        with self._lock:
            stream = self._memo.get(key)
            if stream is None:
                self.stats.misses += 1
                return None
            self._memo.move_to_end(key)
            self.stats.hits += 1
            return stream

    def put(self, key: tuple, stream: replay.KernelStream) -> None:
        """Keep *stream* under *key*, evicting the least recently used."""
        with self._lock:
            self._memo[key] = stream
            self._memo.move_to_end(key)
            if len(self._memo) > _MEMO_CAP:
                self._memo.popitem(last=False)
            self.stats.stores += 1

    def __len__(self) -> int:
        return len(self._memo)

    def __repr__(self) -> str:
        return f"StateCache({len(self)} streams, {self.stats.as_dict()})"
