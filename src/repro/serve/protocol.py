"""Wire protocol of the ``repro serve`` HTTP front-end.

Everything the server and the :mod:`repro.client` library must agree
on lives here — URL layout, the tenant header, job states, and the
JSON shapes — so the two sides cannot drift apart silently.

Endpoints (all JSON; ``/v1`` is :data:`API_PREFIX`)::

    GET  /v1/healthz            liveness + service counters
    POST /v1/sweeps             submit a grid document -> job id
    GET  /v1/sweeps             list known jobs (most recent first)
    GET  /v1/sweeps/{id}        job status (state, progress, failures)
    GET  /v1/sweeps/{id}/report the deterministic sweep report

Tenancy: requests may carry an :data:`TENANT_HEADER` header naming the
caller's cache namespace (validated by :func:`validate_tenant`);
without one the :data:`DEFAULT_TENANT` namespace is used.

Job lifecycle: ``queued`` (accepted, waiting for a job slot) ->
``running`` -> exactly one of the terminal states ``done`` (every
config produced a result), ``partial`` (the sweep completed but some
configs were quarantined, each on its first failure — the status and
report both carry the structured ``failures`` records), or ``failed``
(the job itself errored: bad grid expansion, an internal bug — no
report).

A grid document is what :meth:`repro.runner.config.SweepGrid.from_dict`
parses: ``benchmarks`` and ``schemes`` lists plus optional ``seeds``,
``n_sms``, ``memories``, ``scale``, ``window`` and ``fidelity``; any
other key is a 400.

Error responses are ``{"error": "<message>"}`` with a conventional
status code: 400 malformed request (a request line that is not
``METHOD target HTTP/x.y``, a ``Content-Length`` that is not a
non-negative integer, a body that is not JSON) or spec, 404 unknown
job or path, 405 wrong method, 409 report requested before the job
finished, 413 oversized body, 414 request line over 64 KiB, 431 header
line over 64 KiB or more than 100 headers.
"""

from __future__ import annotations

import re
import secrets
from typing import Dict

__all__ = [
    "API_PREFIX",
    "DEFAULT_TENANT",
    "JOB_DONE",
    "JOB_FAILED",
    "JOB_PARTIAL",
    "JOB_QUEUED",
    "JOB_RUNNING",
    "MAX_BODY_BYTES",
    "TENANT_HEADER",
    "TERMINAL_STATES",
    "TenantError",
    "error_body",
    "new_job_id",
    "validate_tenant",
]

API_PREFIX = "/v1"
TENANT_HEADER = "X-Repro-Tenant"
DEFAULT_TENANT = "public"

# A scenario document is a few KB; anything near this limit is not a
# sweep request, it is a mistake (or an attack on a shared server).
MAX_BODY_BYTES = 4 * 1024 * 1024

JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_PARTIAL = "partial"
JOB_FAILED = "failed"
TERMINAL_STATES = (JOB_DONE, JOB_PARTIAL, JOB_FAILED)

# Tenant names become cache sub-directory names, so the alphabet is
# restricted to filesystem-safe characters and may not start with a
# dot (no hidden directories, no "..").
_TENANT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


class TenantError(ValueError):
    """An invalid tenant name in the :data:`TENANT_HEADER` header."""


def validate_tenant(name: str) -> str:
    """Validate and normalize a tenant name; raise :class:`TenantError`.

    An empty or missing value maps to :data:`DEFAULT_TENANT` so
    anonymous callers share one well-known namespace.
    """
    name = (name or "").strip()
    if not name:
        return DEFAULT_TENANT
    if not _TENANT_RE.match(name):
        raise TenantError(
            f"invalid tenant name {name!r}: use 1-64 characters from "
            f"[A-Za-z0-9._-], starting with a letter or digit"
        )
    return name


def new_job_id(sequence: int) -> str:
    """A job id: a monotonic sequence number plus a random suffix.

    The sequence keeps ids human-orderable in logs; the suffix keeps
    them unguessable enough that one tenant cannot enumerate another's
    job ids by counting.
    """
    return f"job-{sequence:06d}-{secrets.token_hex(4)}"


def error_body(message: str) -> Dict[str, str]:
    """The JSON payload of every error response."""
    return {"error": str(message)}
