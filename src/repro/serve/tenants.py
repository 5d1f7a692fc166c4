"""Per-tenant cache namespaces, quotas, and concurrency limits.

Each tenant (the ``X-Repro-Tenant`` request header, validated by
:func:`repro.serve.protocol.validate_tenant`) maps to its own cache
namespace — a sub-directory of the server's cache root holding an
ordinary :class:`~repro.runner.cache.ResultCache`::

    <cache-root>/<tenant>/<hh>/<key>.json ...

so every existing cache tool works per tenant unchanged: ``repro
cache ls --cache-dir <root>/<tenant>`` inspects one namespace, and the
quota accountant below is built on exactly that machinery
(:meth:`ResultCache.entries` to measure, :meth:`ResultCache.remove`
to evict).

Quotas (:class:`TenantQuota`) bound each namespace by **bytes** and
**entry count**, enforced after every job: when a namespace exceeds a
limit, whole records (result + sidecar) are evicted
oldest-first by file modification time until the namespace fits.
Eviction is safe by construction — the cache is an optimization, so an
evicted record merely costs a future recompute.  ``max_jobs`` bounds a
tenant's *concurrent* jobs; excess submissions are rejected up front
(HTTP 429) instead of queueing unboundedly behind one noisy tenant.

Isolation boundary: namespaces isolate *persistence and quota*, not
results — a simulation is a pure function of its config, so the
runner pool's shared single-flight memo deliberately shares results
across tenants (that sharing is the coalescing win).  What one tenant
can never do is consume another's disk budget or job slots.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

from ..runner.cache import ResultCache
from .protocol import validate_tenant

__all__ = ["TenantQuota", "TenantManager"]


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant limits; ``0`` means unlimited for every field."""

    max_bytes: int = 0
    max_entries: int = 0
    max_jobs: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "max_bytes": self.max_bytes,
            "max_entries": self.max_entries,
            "max_jobs": self.max_jobs,
        }


class TenantManager:
    """Maps tenant names to cache namespaces and tracks their budgets.

    *cache_root* of ``None`` disables persistence entirely (every
    tenant runs uncached; quotas on bytes/entries are then moot but
    job-slot limits still apply).  Thread-safe: jobs acquire and
    release slots and enforce quotas from worker threads.
    """

    def __init__(
        self,
        cache_root: Optional[str] = None,
        quota: TenantQuota = TenantQuota(),
    ) -> None:
        self.root = Path(cache_root) if cache_root else None
        self.quota = quota
        self._lock = threading.Lock()
        self._caches: Dict[str, ResultCache] = {}
        self._active_jobs: Dict[str, int] = {}
        self._evicted: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Namespaces
    # ------------------------------------------------------------------
    def resolve(self, header_value: Optional[str]) -> str:
        """Tenant name for a request header value (validating)."""
        return validate_tenant(header_value or "")

    def cache_for(self, tenant: str) -> Optional[ResultCache]:
        """The tenant's namespace cache (created on first use)."""
        if self.root is None:
            return None
        tenant = validate_tenant(tenant)
        with self._lock:
            cache = self._caches.get(tenant)
            if cache is None:
                cache = ResultCache(self.root / tenant)
                self._caches[tenant] = cache
            return cache

    def namespace_path(self, tenant: str) -> Optional[Path]:
        """On-disk directory of the tenant's namespace (None uncached)."""
        if self.root is None:
            return None
        return self.root / validate_tenant(tenant)

    # ------------------------------------------------------------------
    # Concurrent-job slots
    # ------------------------------------------------------------------
    def try_acquire_job(self, tenant: str) -> bool:
        """Claim one concurrent-job slot; False when the tenant is full."""
        with self._lock:
            active = self._active_jobs.get(tenant, 0)
            if self.quota.max_jobs and active >= self.quota.max_jobs:
                return False
            self._active_jobs[tenant] = active + 1
            return True

    def release_job(self, tenant: str) -> None:
        with self._lock:
            active = self._active_jobs.get(tenant, 0)
            if active <= 1:
                self._active_jobs.pop(tenant, None)
            else:
                self._active_jobs[tenant] = active - 1

    def active_jobs(self, tenant: str) -> int:
        with self._lock:
            return self._active_jobs.get(tenant, 0)

    # ------------------------------------------------------------------
    # Quota accounting
    # ------------------------------------------------------------------
    def usage(self, tenant: str) -> Dict[str, int]:
        """Current namespace footprint: record count and total bytes."""
        cache = self.cache_for(tenant)
        if cache is None:
            return {"entries": 0, "bytes": 0}
        entries = cache.entries()
        return {
            "entries": len(entries),
            "bytes": sum(e.size_bytes for e in entries),
        }

    def enforce_quota(self, tenant: str) -> int:
        """Evict oldest records until the namespace fits; returns evictions.

        Runs after every job.  Only does filesystem work when a limit
        is configured, and never raises — an eviction error costs disk
        space, not correctness, so it is not worth failing a job over.
        """
        if not (self.quota.max_bytes or self.quota.max_entries):
            return 0
        cache = self.cache_for(tenant)
        if cache is None:
            return 0
        try:
            entries = sorted(
                cache.entries(),
                key=lambda e: (e.mtime if e.mtime is not None else 0.0, e.key),
            )
        except OSError:
            return 0
        total_bytes = sum(e.size_bytes for e in entries)
        count = len(entries)
        evicted = 0
        for entry in entries:  # oldest first
            over_bytes = self.quota.max_bytes and total_bytes > self.quota.max_bytes
            over_count = self.quota.max_entries and count > self.quota.max_entries
            if not over_bytes and not over_count:
                break
            cache.remove(entry.key)
            total_bytes -= entry.size_bytes
            count -= 1
            evicted += 1
        if evicted:
            with self._lock:
                self._evicted[tenant] = self._evicted.get(tenant, 0) + evicted
        return evicted

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """JSON-safe service view (for ``/v1/healthz``)."""
        with self._lock:
            return {
                "quota": self.quota.as_dict(),
                "active_jobs": dict(self._active_jobs),
                "evicted": dict(self._evicted),
                "namespaces": sorted(self._caches),
            }
