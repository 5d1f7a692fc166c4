"""The ``repro serve`` HTTP front-end: a threading server over the jobs.

Stdlib-only by design (the repo's hard rule): the standard library's
:class:`http.server.ThreadingHTTPServer`, not a web framework, runs
one thread per request, parses it and enforces its limits (414,
431).  The protocol subset is deliberately tiny — one request per
connection (``Connection: close``), JSON bodies with
``Content-Length``, no chunked transfer, no keep-alive — because the
clients are :mod:`repro.client`, ``curl`` and CI smoke scripts.

Request threads never block on simulation work: handlers only touch
the :class:`~repro.serve.jobs.JobManager` job table (submission
enqueues onto its thread pool and returns immediately), so neither a
slow sweep nor a stalled client can make ``/v1/healthz`` unresponsive.

Two run modes share one :class:`ReproServer`:

* :meth:`ReproServer.serve_forever` — the CLI foreground mode,
* :class:`ServerThread` — a context manager serving on a daemon
  thread, for tests and :mod:`examples.serve_client`.
"""

from __future__ import annotations

import json
import threading
from functools import partial
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from ..runner.config import SweepGrid
from .jobs import JobManager, RunnerPool
from .protocol import (
    API_PREFIX,
    MAX_BODY_BYTES,
    TENANT_HEADER,
    TERMINAL_STATES,
    JOB_FAILED,
    TenantError,
    error_body,
)
from .tenants import TenantManager

__all__ = ["ReproServer", "ServerThread"]

_SWEEPS = f"{API_PREFIX}/sweeps"
_HEALTHZ = f"{API_PREFIX}/healthz"


class _HttpError(Exception):
    """An error response decided during request handling."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class ReproServer:
    """The sweep-as-a-service server: HTTP front-end + warm pool + jobs.

    Owns its :class:`~repro.serve.jobs.RunnerPool`,
    :class:`~repro.serve.tenants.TenantManager` and
    :class:`~repro.serve.jobs.JobManager`; :meth:`close` tears all
    three down.  ``port=0`` binds an ephemeral port — read the real
    one from :attr:`port` after :meth:`start`.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8731,
        *,
        workers: Optional[int] = None,
        runners: int = 1,
        max_jobs: int = 8,
        cache_dir: Optional[str] = None,
        timeout: Optional[float] = None,
        faults: Optional[str] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.tenants = TenantManager(cache_root=cache_dir)
        self.pool = RunnerPool(
            size=runners, workers=workers, timeout=timeout, faults=faults,
        )
        self.jobs = JobManager(self.pool, self.tenants, max_jobs=max_jobs)
        self._httpd: Optional[ThreadingHTTPServer] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bind and start listening (idempotent)."""
        if self._httpd is None:
            self._httpd = ThreadingHTTPServer(
                (self.host, self.port), partial(_Handler, self)
            )
            # With port=0 the OS picked; report the port clients must use.
            self.port = self._httpd.server_port

    def serve_forever(self) -> None:
        """Answer requests until :meth:`stop` is called from another thread."""
        self.start()
        self._httpd.serve_forever()

    def stop(self) -> None:
        """End :meth:`serve_forever` (call from another thread) and
        release the listening socket."""
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None

    def close(self, wait: bool = True) -> None:
        """Tear down jobs and the warm pool (HTTP must be stopped first)."""
        self.jobs.close(wait=wait)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _route(
        self,
        method: str,
        path: str,
        headers: Dict[str, str],
        body: bytes,
    ) -> Tuple[int, object]:
        if path == _HEALTHZ:
            if method != "GET":
                raise _HttpError(405, f"{method} not allowed on {path}")
            return 200, self._healthz()
        if path == _SWEEPS:
            if method == "POST":
                return self._submit(headers, body)
            if method == "GET":
                return 200, {
                    "jobs": [job.status_dict() for job in self.jobs.jobs()]
                }
            raise _HttpError(405, f"{method} not allowed on {path}")
        if path.startswith(_SWEEPS + "/"):
            rest = path[len(_SWEEPS) + 1:]
            if method != "GET":
                raise _HttpError(405, f"{method} not allowed on {path}")
            if rest.endswith("/report"):
                return self._report(rest[: -len("/report")])
            if "/" not in rest:
                return self._status(rest)
        raise _HttpError(404, f"no such endpoint: {method} {path}")

    def _healthz(self) -> Dict[str, object]:
        data: Dict[str, object] = {"ok": True}
        data.update(self.jobs.snapshot())
        data["tenants"] = self.tenants.snapshot()
        return data

    def _submit(
        self, headers: Dict[str, str], body: bytes
    ) -> Tuple[int, object]:
        try:
            tenant = self.tenants.resolve(headers.get(TENANT_HEADER.lower()))
        except TenantError as error:
            raise _HttpError(400, str(error))
        if not body:
            raise _HttpError(400, "missing request body (a scenario document)")
        try:
            document = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise _HttpError(400, f"request body is not valid JSON: {error}")
        # Validate the whole grid up front so a bad spec is the
        # submitter's 400, not a failed job discovered by polling.
        try:
            grid = SweepGrid.from_dict(document)
            grid.configs()
        except (ValueError, TypeError) as error:
            raise _HttpError(400, f"invalid scenario: {error}")
        job = self.jobs.submit(grid, tenant)
        return 202, job.status_dict()

    def _job(self, job_id: str):
        job = self.jobs.get(job_id)
        if job is None:
            raise _HttpError(404, f"no such job: {job_id}")
        return job

    def _status(self, job_id: str) -> Tuple[int, object]:
        return 200, self._job(job_id).status_dict()

    def _report(self, job_id: str) -> Tuple[int, object]:
        job = self._job(job_id)
        if job.state not in TERMINAL_STATES:
            raise _HttpError(
                409, f"job {job_id} is {job.state}; the report exists "
                f"once the job reaches a terminal state"
            )
        if job.state == JOB_FAILED or job.report_text is None:
            raise _HttpError(409, f"job {job_id} failed: {job.error}")
        # Pre-rendered at job completion: byte-identical to
        # ``repro sweep`` on the same grid, by construction.
        return 200, job.report_text


class _Handler(BaseHTTPRequestHandler):
    """One request: read the body, route it, write one JSON reply."""

    protocol_version = "HTTP/1.1"

    def __init__(self, app: ReproServer, *args) -> None:
        self.app = app
        super().__init__(*args)

    def __getattr__(self, name: str):
        # The stdlib dispatches to ``do_<METHOD>`` and answers 501 when
        # there is none; here every method is routed (404 / 405).
        if name.startswith("do_"):
            return self._handle
        raise AttributeError(name)

    def parse_request(self) -> bool:
        # The stdlib takes a two-word line as an HTTP/0.9 request; this
        # protocol knows only "METHOD target version".
        self.requestline = str(self.raw_requestline, "latin-1").rstrip("\r\n")
        if len(self.requestline.split()) == 3:
            return super().parse_request()
        self.send_error(400, f"malformed request line: {self.requestline!r}")
        return False

    def _handle(self) -> None:
        try:
            status, payload = self.app._route(
                self.command.upper(), self.path.split("?", 1)[0],
                self.headers, self._read_body(),
            )
        except _HttpError as error:
            status, payload = error.status, error_body(error.message)
        except Exception as error:  # noqa: BLE001 — server must survive
            status, payload = 500, error_body(
                f"internal error: {type(error).__name__}: {error}"
            )
        self._reply(status, payload)

    def _read_body(self) -> bytes:
        raw_length = self.headers.get("Content-Length", "0") or "0"
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise _HttpError(
                400, f"Content-Length must be a non-negative integer, "
                f"got {raw_length!r}"
            )
        length = int(raw_length)
        if length > MAX_BODY_BYTES:
            raise _HttpError(
                413, f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        body = self.rfile.read(length)
        if len(body) < length:
            raise _HttpError(
                400, f"request body ended after {len(body)} of {length} bytes"
            )
        return body

    def _reply(self, status: int, payload) -> None:
        """Send one JSON response.  *payload* may be a dict (rendered
        compactly) or pre-rendered text (the byte-exact report path)."""
        if isinstance(payload, str):
            body = payload.encode("utf-8")
        else:
            body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Connection", "close")
        try:
            self.end_headers()
            self.wfile.write(body)
        except OSError:
            pass  # client gone; the job (if any) continues regardless

    def send_error(self, code, message=None, explain=None) -> None:
        """The stdlib's own rejections, in this protocol's JSON shape."""
        # A line the stdlib could not parse leaves the request at
        # HTTP/0.9, whose replies carry no status line; these have one.
        self.request_version = self.protocol_version
        self._reply(code, error_body(message or self.responses[code][0]))

    def log_message(self, format, *args) -> None:
        """Requests are not logged."""


class ServerThread:
    """Run a :class:`ReproServer` on a daemon thread (tests, examples).

    ::

        with ServerThread(ReproServer(port=0)) as url:
            client = ReproClient(url)
    """

    def __init__(self, server: ReproServer) -> None:
        self.server = server
        self._thread = threading.Thread(
            target=server.serve_forever, name="repro-serve", daemon=True
        )

    def start(self) -> str:
        """Bind, then serve on the thread; returns the base URL."""
        self.server.start()
        self._thread.start()
        return self.server.url

    def stop(self) -> None:
        if self._thread.is_alive():
            self.server.stop()
            self._thread.join(timeout=30)
        self.server.close()

    def __enter__(self) -> str:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
