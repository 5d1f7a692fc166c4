"""The in-process memo of warmed-state replay streams.

The ``--fidelity auto`` mode replays every *estimated* kernel's traffic
functionally to keep the L1/LLC/DRAM-row state warm (see
:meth:`~repro.sim.gpu_system.GPUSystem._run_auto`).  The input of that
replay — the kernel's merged, wave-ordered op stream
(:class:`~repro.sim.replay.KernelStream`) — is a pure function of the
workload and the machine geometry, **never of the mapping scheme**:
interleave order, TB spreading and the raw addresses are all computed
before the scheme's GF(2) map is applied.  This memo therefore keys
streams by::

    (workload identity, scale, fidelity, memory kind, n_sms,
     kernel index, wave capacity)

with the scheme deliberately excluded, so a 6-scheme sweep builds each
kernel's stream once and every later scheme reuses it.  Each
:class:`~repro.runner.worker.RunContext` owns one, so every auto run of
a process shares streams: inline sweeps, pool workers and ``repro
serve`` alike, with or without a result cache.  The warmed tag/row
state itself is *not* memoized — it is scheme-dependent (tags hold
scheme-mapped lines) — each run derives it by mapping the stream once
and replaying, which is the cheap part once the stream exists.

The memo is an LRU bounded at :data:`_MEMO_CAP` streams, locked
because a ``repro serve`` process's inline runners share one context
across threads.  Streams are read-only after construction, so sharing
one object between runs is safe.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional

from ..core.serialize import stable_hash
from ..sim.replay import KernelStream
from .cache import CacheStats

__all__ = ["StateCache"]

# Streams kept per process; the least recently used one goes first.
_MEMO_CAP = 128


class StateCache:
    """Warmed-state replay streams keyed by a scheme-independent hash."""

    def __init__(self) -> None:
        self.stats = CacheStats()
        self._memo: "OrderedDict[str, KernelStream]" = OrderedDict()
        self._lock = threading.Lock()

    def key_for(self, base: Dict[str, object], kernel_index: int,
                wave_cap: int) -> str:
        """The memo key for one kernel of a run.

        *base* is the run's scheme-independent identity document
        (workload identity, scale, fidelity, memory, n_sms — built by
        :meth:`~repro.runner.worker.RunContext.execute`); the kernel
        index and the machine's wave capacity complete it.
        """
        return stable_hash(dict(
            base, kernel=int(kernel_index), wave_cap=int(wave_cap)
        ))

    def get(self, key: str) -> Optional[KernelStream]:
        """The stream stored under *key*; None on miss."""
        with self._lock:
            stream = self._memo.get(key)
            if stream is None:
                self.stats.misses += 1
                return None
            self._memo.move_to_end(key)
            self.stats.hits += 1
            return stream

    def put(self, key: str, stream: KernelStream) -> None:
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
