"""Content-addressed on-disk result cache.

Layout (under the cache root)::

    <root>/
      <hh>/<full-64-hex-hash>.json        # hh = first two hash chars
      <hh>/<full-64-hex-hash>.meta.json   # runtime metadata sidecar

Each result record is one JSON object::

    {
      "config": {...RunConfig.to_dict()...},
      "result": {...SimulationResult.to_dict()...}
    }

The **metadata sidecar** is advisory: it records how the result was
produced (wall seconds, engine events, the ``CACHE_SCHEMA_VERSION`` it
was computed under, and the run's config axes) so ``repro cache ls /
prune`` can report and evict by schema version.  Results are always
correct without sidecars — a missing or corrupt sidecar only drops
the run's wall from ``repro cache ls`` and makes
:meth:`ResultCache.schema_of` re-hash the record instead.

Writes are atomic (temp file + ``os.replace``) so a crashed or killed
sweep can never leave a half-written record behind; a record that is
nevertheless unreadable or malformed (truncated by the filesystem,
hand-edited, wrong schema) is treated as a miss, deleted, and counted
in :attr:`CacheStats.corrupt` — the run is simply recomputed.

The cache is safe for concurrent use by multiple processes: records
are immutable once written (content-addressed by the config hash), and
the atomic rename makes racing writers idempotent.  Two sweeps whose
grids overlap may both compute a config; the later write replaces the
earlier record with the same bytes.  Only records and sidecars are
written under the root, each through a transient temp file.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.serialize import canonical_json, stable_hash
from ..sim.results import SimulationResult
from .config import CACHE_SCHEMA_VERSION, RunConfig
from .faults import FaultPlan

__all__ = ["ResultCache", "CacheStats", "CacheEntry"]

_META_SUFFIX = ".meta.json"


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
        }


@dataclass(frozen=True)
class CacheEntry:
    """One record as seen by ``repro cache ls`` (metadata may be absent).

    ``mtime`` is the record file's modification time — advisory, used
    only for operator listings, never for correctness.
    """

    key: str
    path: Path
    size_bytes: int
    schema: Optional[int]
    wall_seconds: Optional[float]
    benchmark: Optional[str]
    scheme: Optional[str]
    mtime: Optional[float] = None

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form (``repro cache ls --json``)."""
        return {
            "key": self.key,
            "size_bytes": self.size_bytes,
            "schema": self.schema,
            "wall_seconds": self.wall_seconds,
            "benchmark": self.benchmark,
            "scheme": self.scheme,
            "mtime": self.mtime,
        }


def _atomic_write(path: Path, payload: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class ResultCache:
    """JSON result records keyed by the stable config hash.

    *faults* is an optional :class:`~repro.runner.faults.FaultPlan`
    (or spec string) whose ``corrupt`` / ``cacheio`` clauses are
    applied on :meth:`put` — the deterministic stand-in for a
    filesystem that truncates records or raises I/O errors, used by
    the fault-injection test harness.  Without a plan, writes are
    untouched.
    """

    def __init__(self, root, faults: Optional[FaultPlan] = None) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()
        self._faults = FaultPlan.parse(faults) if isinstance(faults, str) else faults

    def path_for(self, key: str) -> Path:
        """On-disk location of the record for cache key *key*."""
        return self.root / key[:2] / f"{key}.json"

    def meta_path_for(self, key: str) -> Path:
        """On-disk location of the runtime-metadata sidecar for *key*."""
        return self.root / key[:2] / f"{key}{_META_SUFFIX}"

    # ------------------------------------------------------------------
    # Records
    # ------------------------------------------------------------------
    def _load(self, path: Path) -> Optional[SimulationResult]:
        """Read one record; None if absent; self-heal corrupt records."""
        try:
            with open(path) as handle:
                record = json.load(handle)
            return SimulationResult.from_dict(record["result"])
        except FileNotFoundError:
            return None
        except (ValueError, KeyError, TypeError, OSError):
            # Unreadable or malformed record: drop it and recompute.
            self.stats.corrupt += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return None

    def get(self, config: RunConfig) -> Optional[SimulationResult]:
        """Look up *config*; None on miss.  Corrupt records self-heal."""
        result = self._load(self.path_for(config.config_hash()))
        if result is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return result

    def peek(self, config: RunConfig) -> Optional[SimulationResult]:
        """Like :meth:`get` but without hit/miss accounting.

        Used by :func:`~repro.runner.report.report_from_cache`, which
        reads a cache without running anything, so its lookups are not
        a sweep's hits or misses.
        """
        return self._load(self.path_for(config.config_hash()))

    def put(
        self,
        config: RunConfig,
        result: SimulationResult,
        wall_seconds: Optional[float] = None,
    ) -> Path:
        """Store *result* under *config*'s hash (atomic, idempotent).

        When *wall_seconds* is given, a metadata sidecar is written
        next to the record; sidecar failures are swallowed (metadata is
        advisory, the record itself is what matters).  May raise
        :class:`OSError` on real (or injected) I/O failure — callers
        treat the cache as an optimization and must survive that.
        """
        key = config.config_hash()
        path = self.path_for(key)
        record = {"config": config.to_dict(), "result": result.to_dict()}
        text = canonical_json(record) + "\n"
        if self._faults is not None:
            fault = self._faults.cache_fault(
                config.benchmark_name, config.scheme_name
            )
            if fault == "cacheio":
                raise OSError(
                    f"injected cache I/O fault writing {key[:16]} "
                    f"({config.benchmark_name}/{config.scheme_name})"
                )
            if fault == "corrupt":
                # A torn write: half the record, no closing brace.
                text = text[: max(8, len(text) // 2)]
        _atomic_write(path, text.encode())
        self.stats.stores += 1
        if wall_seconds is not None:
            meta = {
                "schema": CACHE_SCHEMA_VERSION,
                "wall_seconds": round(float(wall_seconds), 6),
                "events": result.metadata.get("events"),
                "benchmark": config.benchmark_name,
                "scheme": config.scheme_name,
                "scale": config.scale,
                "n_sms": config.n_sms,
                "memory": config.memory,
                "fidelity": config.fidelity,
            }
            try:
                sidecar = canonical_json(meta) + "\n"
                _atomic_write(self.meta_path_for(key), sidecar.encode())
            except OSError:
                pass
        return path

    def get_meta(self, key: str) -> Optional[Dict[str, object]]:
        """The runtime-metadata sidecar for *key*, or None."""
        try:
            with open(self.meta_path_for(key)) as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            return None
        return data if isinstance(data, dict) else None

    # ------------------------------------------------------------------
    # Inspection and pruning (``repro cache``)
    # ------------------------------------------------------------------
    def _record_paths(self) -> Iterator[Path]:
        for path in sorted(self.root.glob("*/*.json")):
            if not path.name.endswith(_META_SUFFIX):
                yield path

    def schema_of(self, key: str) -> Optional[int]:
        """Which ``CACHE_SCHEMA_VERSION`` produced the record for *key*.

        Prefers the sidecar; without one, probes every version up to
        the current one by re-hashing the record's embedded config
        (the key mixes the version in, so exactly one probe matches).
        Returns None when the record is unreadable or from a foreign
        schema newer than this code.
        """
        meta = self.get_meta(key)
        if meta is not None and isinstance(meta.get("schema"), int):
            return int(meta["schema"])
        try:
            with open(self.path_for(key)) as handle:
                payload = dict(json.load(handle)["config"])
        except (OSError, ValueError, KeyError, TypeError):
            return None
        for version in range(1, CACHE_SCHEMA_VERSION + 1):
            payload["__schema__"] = version
            if stable_hash(payload) == key:
                return version
        return None

    def entries(self) -> List[CacheEntry]:
        """All records on disk, with whatever metadata is available."""
        out = []
        for path in self._record_paths():
            key = path.stem
            meta = self.get_meta(key) or {}
            schema = meta.get("schema")
            if not isinstance(schema, int):
                schema = self.schema_of(key)
            wall = meta.get("wall_seconds")
            try:
                stat = path.stat()
            except OSError:
                continue  # raced with a concurrent prune/evict
            out.append(CacheEntry(
                key=key,
                path=path,
                size_bytes=stat.st_size,
                schema=schema,
                wall_seconds=float(wall) if wall is not None else None,
                benchmark=meta.get("benchmark"),
                scheme=meta.get("scheme"),
                mtime=stat.st_mtime,
            ))
        return out

    def remove(self, key: str) -> None:
        """Delete the record and sidecar for *key* (if present)."""
        for path in (self.path_for(key), self.meta_path_for(key)):
            try:
                os.unlink(path)
            except OSError:
                pass

    def prune(
        self,
        schema_versions: Optional[Sequence[int]] = None,
        stale: bool = False,
    ) -> Tuple[int, int]:
        """Evict records by schema version; returns ``(removed, kept)``.

        *schema_versions* lists versions to evict.  *stale* evicts
        everything not produced under the current
        :data:`~repro.runner.config.CACHE_SCHEMA_VERSION` — including
        records whose schema cannot be determined (they are unreadable
        by current code anyway).
        """
        targets = set(schema_versions or ())
        removed = kept = 0
        for entry in self.entries():
            evict = entry.schema in targets
            if stale and entry.schema != CACHE_SCHEMA_VERSION:
                evict = True
            if evict:
                self.remove(entry.key)
                removed += 1
            else:
                kept += 1
        return removed, kept

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of result records currently on disk (sidecars excluded)."""
        return sum(1 for _ in self._record_paths())

    def __repr__(self) -> str:
        return f"ResultCache({str(self.root)!r}, {self.stats.as_dict()})"
