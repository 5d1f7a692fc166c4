"""Time-integrated simulation metrics.

The paper's memory-level-parallelism metrics (Fig. 14) are defined as
"the number of outstanding requests if at least one is outstanding":
the time-average number of busy units over the time at least one is
busy.  A unit is busy while one of its requests is outstanding, so a
run logs each request's busy interval and integrates once at the end
with :func:`busy_time` (``|U|`` is the length of a union):

* LLC-level, over slices, each read from L1-miss issue to response:
  ``sum over slices |U slice| / |U all|``,
* channel-level, each DRAM request from controller arrival to
  completion: ``sum over channels |U channel| / |U all|``,
* bank-level, per channel and weighted by channel busy time:
  ``sum over (channel, bank) |U bank| / sum over channels |U channel|``.

All terms are integer cycles, so the ratios equal those of a +1/-1
outstanding-count tracker (kept as the oracle in
``tests/parallelism_oracle.py``).
"""

from __future__ import annotations

import numpy as np

__all__ = ["busy_time"]


def busy_time(starts, ends, units=None) -> int:
    """Sum over units of the length of each unit's union of intervals.

    Intervals are ``[start, end)``; without *units* they all belong to
    one unit.  Each unit's intervals are shifted into a time band of
    their own, so one sort and one running maximum of the ends measure
    every union at once.  An interval that ends before it starts
    raises :class:`ValueError`.
    """
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    if not starts.size:
        return 0
    backwards = np.flatnonzero(ends < starts)
    if backwards.size:
        i = backwards[0]
        raise ValueError(
            f"interval {i} ends before it starts: [{starts[i]}, {ends[i]})"
        )
    if units is not None:
        origin = starts.min()
        shift = np.asarray(units, dtype=np.int64) * (ends.max() - origin + 1)
        starts, ends = starts + shift - origin, ends + shift - origin
    order = np.argsort(starts)
    starts, ends = starts[order], ends[order]
    # Each interval adds what lies past the furthest end before it.
    added = ends[1:] - np.maximum(starts[1:], np.maximum.accumulate(ends)[:-1])
    return int(ends[0] - starts[0]) + int(added[added > 0].sum())
