"""Deterministic grid partitioning for distributed sweeps.

``repro sweep --shard I/N`` splits the expanded grid across N
independent processes (typically N machines sharing one cache
directory, or nothing at all but the final ``repro merge``).  The
partition must satisfy three invariants, all enforced by tests:

* **disjoint** — no config is owned by two shards,
* **covering** — the union of all N shards is exactly the full grid,
* **stable** — re-invoking the same ``I/N`` always yields the same
  subset, independent of process, platform or Python hash seed.

Ownership is decided by rendezvous (highest-random-weight) hashing of
each config's cache key: shard *i* owns a key when
``sha256("shard=i:" + key)`` is the largest weight among all shards.
Because the key is the config's content hash, custom spec-based
scenarios (:mod:`repro.specs`) partition exactly like built-in names —
sharding never needs to understand what a config *contains*.
Because the weight of shard *i* for a given key does not depend on
*N*, growing the shard count only moves keys onto the new shards —
every key that stays keeps its owner (the classic HRW property), which
keeps a shared result cache warm across re-partitions.

Shard indexes are 1-based on the command line (``1/4`` .. ``4/4``),
matching how launchers usually number their workers.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..specs import integer
from .config import RunConfig

__all__ = ["ShardSpec", "shard_owner"]

_SHARD_RE = re.compile(r"^(\d+)/(\d+)$")


def _weight(shard_index: int, key: str) -> int:
    digest = hashlib.sha256(f"shard={shard_index}:{key}".encode("ascii")).digest()
    return int.from_bytes(digest, "big")


def shard_owner(key: str, count: int) -> int:
    """The (1-based) shard that owns *key* under rendezvous hashing."""
    if count < 1:
        raise ValueError(f"shard count must be >= 1, got {count}")
    if count == 1:
        return 1
    best_index = 1
    best_weight = -1
    for index in range(1, count + 1):
        weight = _weight(index, key)
        if weight > best_weight:
            best_index = index
            best_weight = weight
    return best_index


@dataclass(frozen=True)
class ShardSpec:
    """One shard of an N-way grid partition (1-based ``index``)."""

    index: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"shard count must be >= 1, got {self.count}")
        if not 1 <= self.index <= self.count:
            raise ValueError(
                f"shard index must be within 1..{self.count}, got {self.index} "
                f"(shards are numbered 1/N .. N/N)"
            )

    @classmethod
    def parse(cls, text: str) -> "ShardSpec":
        """Parse the CLI form ``I/N`` (e.g. ``2/4``)."""
        match = _SHARD_RE.match(text.strip())
        if not match:
            raise ValueError(f"shard must look like I/N (e.g. 2/4), got {text!r}")
        return cls(index=int(match.group(1)), count=int(match.group(2)))

    @property
    def is_full(self) -> bool:
        """True when this "shard" is the whole grid (count == 1)."""
        return self.count == 1

    def owns(self, key: str) -> bool:
        """True if this shard owns cache key *key*."""
        return shard_owner(key, self.count) == self.index

    def select(self, configs: Sequence[RunConfig]) -> List[RunConfig]:
        """The subset of *configs* this shard owns, in input order."""
        if self.is_full:
            return list(configs)
        return [c for c in configs if self.owns(c.config_hash())]

    def to_dict(self) -> Dict[str, int]:
        return {"index": self.index, "count": self.count}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ShardSpec":
        """Parse :meth:`to_dict` output; a non-integer is a ValueError."""
        return cls(
            index=integer(data["index"], "shard index"),
            count=integer(data["count"], "shard count"),
        )

    def __str__(self) -> str:
        return f"{self.index}/{self.count}"
