"""``repro serve`` — sweep-as-a-service.

A long-lived HTTP front-end over :mod:`repro.api`: a warm
:class:`~repro.runner.sweep.SweepRunner` pool shared across requests,
whose runners share one single-flight result memo keyed by canonical
cache keys (:class:`~repro.runner.sweep.RunMemo`), an async job
manager (submit a scenario, poll its status, fetch the deterministic
report), and per-tenant cache namespaces with byte / entry /
concurrent-job quotas.

Layers (each its own module):

* :mod:`~repro.serve.protocol` — the wire contract shared with
  :mod:`repro.client`,
* :mod:`~repro.serve.tenants` — namespaces, quotas, job slots,
* :mod:`~repro.serve.jobs` — the warm runner pool and job manager,
* :mod:`~repro.serve.app` — the asyncio HTTP server.
"""

from .app import ReproServer, ServerThread
from .jobs import Job, JobManager, RunnerPool, TenantBusy
from .protocol import (
    API_PREFIX,
    DEFAULT_TENANT,
    JOB_STATES,
    TENANT_HEADER,
    TERMINAL_STATES,
    TenantError,
    validate_tenant,
)
from .tenants import TenantManager, TenantQuota

__all__ = [
    "API_PREFIX",
    "DEFAULT_TENANT",
    "JOB_STATES",
    "Job",
    "JobManager",
    "ReproServer",
    "RunnerPool",
    "ServerThread",
    "TENANT_HEADER",
    "TERMINAL_STATES",
    "TenantBusy",
    "TenantError",
    "TenantManager",
    "TenantQuota",
    "validate_tenant",
]
