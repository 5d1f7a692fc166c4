"""``repro serve`` — sweep-as-a-service.

A long-lived HTTP front-end over :mod:`repro.api`: a warm
:class:`~repro.runner.sweep.SweepRunner` pool shared across requests,
whose runners share one single-flight result memo keyed by canonical
cache keys (:class:`~repro.runner.sweep.RunMemo`), an async job
manager (submit a scenario, poll its status, fetch the deterministic
report), and per-tenant cache namespaces.

Layers (each its own module):

* :mod:`~repro.serve.protocol` — the wire contract shared with
  :mod:`repro.client`,
* :mod:`~repro.serve.tenants` — per-tenant cache namespaces,
* :mod:`~repro.serve.jobs` — the warm runner pool and job manager,
* :mod:`~repro.serve.app` — the HTTP server, on the standard
  library's :class:`http.server.ThreadingHTTPServer`.
"""

from .app import ReproServer, ServerThread
from .jobs import Job, JobManager, RunnerPool
from .protocol import (
    API_PREFIX,
    DEFAULT_TENANT,
    TENANT_HEADER,
    TERMINAL_STATES,
    TenantError,
    validate_tenant,
)
from .tenants import TenantManager

__all__ = [
    "API_PREFIX",
    "DEFAULT_TENANT",
    "Job",
    "JobManager",
    "ReproServer",
    "RunnerPool",
    "ServerThread",
    "TENANT_HEADER",
    "TERMINAL_STATES",
    "TenantError",
    "TenantManager",
    "validate_tenant",
]
