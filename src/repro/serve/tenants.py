"""Per-tenant cache namespaces.

Each tenant (the ``X-Repro-Tenant`` request header, validated by
:func:`repro.serve.protocol.validate_tenant`) maps to its own cache
namespace — a sub-directory of the server's cache root holding an
ordinary :class:`~repro.runner.cache.ResultCache`::

    <cache-root>/<tenant>/<hh>/<key>.json ...

so every existing cache tool works per tenant unchanged: ``repro
cache ls --cache-dir <root>/<tenant>`` inspects one namespace.

Isolation boundary: namespaces isolate *persistence*, not results — a
simulation is a pure function of its config, so the server's one
runner memo deliberately shares results across tenants (that sharing
is the dedup win).  What one tenant can never do
is write into another's namespace.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Dict, Optional

from ..runner.cache import ResultCache
from .protocol import validate_tenant

__all__ = ["TenantManager"]


class TenantManager:
    """Maps tenant names to cache namespaces.

    *cache_root* of ``None`` disables persistence entirely (every
    tenant runs uncached).  Thread-safe: jobs look up their namespace
    from worker threads.
    """

    def __init__(self, cache_root: Optional[str] = None) -> None:
        self.root = Path(cache_root) if cache_root else None
        self._lock = threading.Lock()
        self._caches: Dict[str, ResultCache] = {}

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

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe service view (for ``/v1/healthz``)."""
        with self._lock:
            return {"namespaces": sorted(self._caches)}
