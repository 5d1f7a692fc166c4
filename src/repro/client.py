"""``repro.client`` — a thin library client for ``repro serve``.

Stdlib-only (``urllib``): submit a scenario, poll it, wait for a
terminal state, fetch the deterministic report.  The wire contract
lives in :mod:`repro.serve.protocol`; this module adds nothing to it.

::

    from repro.client import ReproClient

    client = ReproClient("http://127.0.0.1:8731", tenant="alice")
    job = client.submit({"benchmarks": ["SP"], "schemes": ["PAE"]})
    done = client.wait(job["id"])
    text = client.report_text(job["id"])   # byte-identical to repro sweep

:class:`ClientError` subclasses :class:`OSError` so CLI front-ends
that already map ``OSError`` to a usage/IO exit code (``repro
submit``) need no special casing; :attr:`ClientError.status` carries
the HTTP status when the server answered at all.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Dict, Optional, Union

from .serve.protocol import API_PREFIX, TENANT_HEADER, TERMINAL_STATES

__all__ = ["ClientError", "ReproClient"]


class ClientError(OSError):
    """A failed server interaction (HTTP error, bad payload, timeout).

    ``status`` is the HTTP status code, or ``None`` when the failure
    happened below HTTP (connection refused, malformed response).
    """

    def __init__(self, message: str, status: Optional[int] = None) -> None:
        super().__init__(message)
        self.status = status


class ReproClient:
    """Talks to one ``repro serve`` instance, as one tenant."""

    def __init__(
        self,
        base_url: str,
        tenant: Optional[str] = None,
        timeout: float = 30.0,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.tenant = tenant
        self.timeout = float(timeout)

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, object]] = None,
        raw: bool = False,
    ) -> Union[Dict[str, object], str]:
        url = f"{self.base_url}{API_PREFIX}{path}"
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body, sort_keys=True).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if self.tenant:
            headers[TENANT_HEADER] = self.tenant
        request = urllib.request.Request(
            url, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                text = resp.read().decode("utf-8")
        except urllib.error.HTTPError as error:
            detail = ""
            try:
                payload = json.loads(error.read().decode("utf-8"))
                detail = str(payload.get("error", ""))
            except Exception:  # noqa: BLE001 — error body is best-effort
                pass
            raise ClientError(
                f"{method} {url} -> HTTP {error.code}"
                + (f": {detail}" if detail else ""),
                status=error.code,
            ) from None
        except urllib.error.URLError as error:
            raise ClientError(
                f"{method} {url} failed: {error.reason}"
            ) from None
        if raw:
            return text
        try:
            return json.loads(text)
        except json.JSONDecodeError as error:
            raise ClientError(
                f"{method} {url} returned malformed JSON: {error}"
            ) from None

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def healthz(self) -> Dict[str, object]:
        return self._request("GET", "/healthz")

    def submit(self, scenario) -> Dict[str, object]:
        """Submit a grid; returns the job's initial status document.

        *scenario* may be a grid document (the dict
        :meth:`~repro.runner.config.SweepGrid.from_dict` parses) or a
        :class:`~repro.runner.config.SweepGrid`.
        """
        if hasattr(scenario, "to_dict"):
            scenario = scenario.to_dict()
        if not isinstance(scenario, dict):
            raise TypeError(
                f"scenario must be a dict or SweepGrid, got "
                f"{type(scenario).__name__}"
            )
        return self._request("POST", "/sweeps", body=scenario)

    def jobs(self) -> Dict[str, object]:
        return self._request("GET", "/sweeps")

    def status(self, job_id: str) -> Dict[str, object]:
        return self._request("GET", f"/sweeps/{job_id}")

    def wait(
        self,
        job_id: str,
        timeout: Optional[float] = None,
        poll_seconds: float = 0.25,
    ) -> Dict[str, object]:
        """Poll until the job reaches a terminal state; return its status.

        Raises :class:`ClientError` when *timeout* (seconds) elapses
        first — the job itself keeps running server-side.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status.get("state") in TERMINAL_STATES:
                return status
            if deadline is not None and time.monotonic() >= deadline:
                raise ClientError(
                    f"job {job_id} still {status.get('state')} after "
                    f"{timeout}s"
                )
            time.sleep(poll_seconds)

    def report_text(self, job_id: str) -> str:
        """The rendered report — byte-identical to ``repro sweep``."""
        return self._request("GET", f"/sweeps/{job_id}/report", raw=True)

    def report(self, job_id: str) -> Dict[str, object]:
        """The report parsed back to a dict."""
        return json.loads(self.report_text(job_id))
