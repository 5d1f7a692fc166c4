"""Content-addressed on-disk cache of warmed-state replay streams.

The ``--fidelity auto`` mode replays every *estimated* kernel's traffic
functionally to keep the L1/LLC/DRAM-row state warm (see
:meth:`~repro.sim.gpu_system.GPUSystem._run_auto`).  The input of that
replay — the kernel's merged, wave-ordered op stream
(:class:`~repro.sim.replay.KernelStream`) — is a pure function of the
workload and the machine geometry, **never of the mapping scheme**:
interleave order, TB spreading and the raw addresses are all computed
before the scheme's GF(2) map is applied.  This cache therefore keys
streams by::

    (workload identity, scale, fidelity, memory kind, n_sms,
     kernel index, wave capacity)

with the scheme deliberately excluded, so a 6-scheme sweep builds each
kernel's stream once and later sweeps reuse it.  Only a
:class:`~repro.runner.sweep.SweepRunner` with a ``cache_dir`` uses this
cache, in ``<cache_dir>/state``; ``repro serve`` builds its runners
without one, so every serve run builds its own streams.  The warmed
tag/row state itself is *not* cached — it is scheme-dependent (tags
hold scheme-mapped lines) — each run derives it by mapping the cached
stream once and replaying, which is the cheap part once the stream
exists.

Layout mirrors :class:`~repro.runner.cache.ResultCache` (same
sidecar/prune/ls plumbing, own schema version)::

    <root>/
      <hh>/<full-64-hex-hash>.npz         # the stream (numpy archive)
      <hh>/<full-64-hex-hash>.meta.json   # advisory metadata sidecar

Records are immutable and atomic-renamed into place, so concurrent
workers race idempotently; a corrupt record is deleted and counted,
then simply rebuilt.  Everything here is an optimization: any failure
to read or write degrades to building the stream in process.
"""

from __future__ import annotations

import io
import json
import os
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core.serialize import canonical_json, stable_hash
from ..sim.replay import KernelStream
from .cache import CacheEntry, CacheStats, _atomic_write

__all__ = ["StateCache", "STATE_SCHEMA_VERSION"]

# Bump when the stream payload layout or the key document changes.
# Independent of CACHE_SCHEMA_VERSION: result records and warmed-state
# records evolve separately.
STATE_SCHEMA_VERSION = 1

_META_SUFFIX = ".meta.json"

# Streams already deserialized this process stay in a small LRU memo:
# a sweep worker replays the same stream once per scheme, and decoding
# the npz archive each time would rival the replay itself.  Streams
# are read-only after construction, so sharing one object is safe.
_MEMO_CAP = 128


class StateCache:
    """Warmed-state replay streams keyed by a scheme-independent hash."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()
        self._memo: "OrderedDict[str, KernelStream]" = OrderedDict()

    def key_for(self, base: Dict[str, object], kernel_index: int,
                wave_cap: int) -> str:
        """The record key for one kernel of a run.

        *base* is the run's scheme-independent identity document
        (workload identity, scale, fidelity, memory, n_sms — built by
        :meth:`~repro.runner.worker.RunContext.execute`); the kernel
        index and the machine's wave capacity complete it.  The schema
        version is mixed into the hash so layout changes never alias
        old records.
        """
        return stable_hash(dict(
            base,
            kernel=int(kernel_index),
            wave_cap=int(wave_cap),
            __schema__=STATE_SCHEMA_VERSION,
        ))

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.npz"

    def meta_path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}{_META_SUFFIX}"

    # ------------------------------------------------------------------
    # Records
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[KernelStream]:
        """The stream stored under *key*; None on miss.

        Corrupt or foreign records self-heal: they are deleted,
        counted, and reported as a miss (the caller rebuilds).

        A record deserialized once this process is served from the
        in-memory memo afterwards (populated only by successful disk
        reads, so a freshly corrupted record is still detected the
        first time it is read).
        """
        memoized = self._memo.get(key)
        if memoized is not None:
            self._memo.move_to_end(key)
            self.stats.hits += 1
            return memoized
        path = self.path_for(key)
        try:
            with np.load(path, allow_pickle=False) as archive:
                stream = KernelStream(
                    addresses=archive["addresses"].astype(
                        np.uint64, copy=False
                    ),
                    writes=archive["writes"].astype(bool, copy=False),
                    tb_ordinals=archive["tb_ordinals"].astype(
                        np.int32, copy=False
                    ),
                    n_tbs=int(archive["n_tbs"]),
                    wave_cap=int(archive["wave_cap"]),
                )
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError):
            # Unreadable, missing a field, a non-scalar count, or a
            # stream that breaks a KernelStream invariant.
            self.stats.corrupt += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self._memo[key] = stream
        if len(self._memo) > _MEMO_CAP:
            self._memo.popitem(last=False)
        return stream

    def put(self, key: str, stream: KernelStream, **meta) -> None:
        """Store *stream* under *key* (atomic, idempotent, advisory).

        Write failures are swallowed: the cache is an optimization and
        the caller already holds the built stream.
        """
        buffer = io.BytesIO()
        np.savez(
            buffer,
            addresses=stream.addresses,
            writes=stream.writes,
            tb_ordinals=stream.tb_ordinals,
            n_tbs=np.int64(stream.n_tbs),
            wave_cap=np.int64(stream.wave_cap),
        )
        try:
            _atomic_write(self.path_for(key), buffer.getvalue())
            sidecar = {
                "schema": STATE_SCHEMA_VERSION,
                "ops": stream.n_ops,
                "n_tbs": stream.n_tbs,
                "wave_cap": stream.wave_cap,
                **{k: v for k, v in meta.items() if v is not None},
            }
            _atomic_write(
                self.meta_path_for(key),
                (canonical_json(sidecar) + "\n").encode(),
            )
        except OSError:
            return
        self.stats.stores += 1

    def get_meta(self, key: str) -> Optional[Dict[str, object]]:
        try:
            with open(self.meta_path_for(key)) as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            return None
        return data if isinstance(data, dict) else None

    # ------------------------------------------------------------------
    # Inspection and pruning (``repro cache --state``)
    # ------------------------------------------------------------------
    def _record_paths(self) -> Iterator[Path]:
        yield from sorted(self.root.glob("*/*.npz"))

    def entries(self) -> List[CacheEntry]:
        """All state records, in the ``repro cache ls`` entry shape."""
        out = []
        for path in self._record_paths():
            key = path.stem
            meta = self.get_meta(key) or {}
            schema = meta.get("schema")
            try:
                stat = path.stat()
            except OSError:
                continue  # raced with a concurrent prune
            out.append(CacheEntry(
                key=key,
                path=path,
                size_bytes=stat.st_size,
                schema=schema if isinstance(schema, int) else None,
                wall_seconds=None,
                benchmark=meta.get("benchmark"),
                scheme=None,  # scheme-independent by construction
                mtime=stat.st_mtime,
            ))
        return out

    def usage(self) -> Dict[str, int]:
        entries = bytes_total = 0
        for path in self._record_paths():
            try:
                bytes_total += path.stat().st_size
            except OSError:
                continue
            entries += 1
        return {"entries": entries, "bytes": bytes_total}

    def remove(self, key: str) -> None:
        self._memo.pop(key, None)
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
        """Evict state records by schema version; ``(removed, kept)``.

        Same contract as :meth:`ResultCache.prune`: *stale* evicts
        everything not produced under the current
        :data:`STATE_SCHEMA_VERSION`, including records whose schema
        cannot be determined.
        """
        targets = set(schema_versions or ())
        removed = kept = 0
        for entry in self.entries():
            evict = entry.schema in targets
            if stale and entry.schema != STATE_SCHEMA_VERSION:
                evict = True
            if evict:
                self.remove(entry.key)
                removed += 1
            else:
                kept += 1
        return removed, kept

    def __len__(self) -> int:
        return sum(1 for _ in self._record_paths())

    def __repr__(self) -> str:
        return f"StateCache({str(self.root)!r}, {self.stats.as_dict()})"
