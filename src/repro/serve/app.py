"""The ``repro serve`` HTTP front-end: an asyncio server over the jobs.

Stdlib-only by design (the repo's hard rule): a small hand-rolled
HTTP/1.1 request loop on :func:`asyncio.start_server` rather than a
web framework.  The protocol subset is deliberately tiny — one
request per connection (``Connection: close``), JSON bodies with
``Content-Length``, no chunked transfer, no keep-alive — because the
clients are :mod:`repro.client`, ``curl`` and CI smoke scripts, not
browsers.

The event loop never blocks on simulation work: handlers only touch
the :class:`~repro.serve.jobs.JobManager` job table (submission
enqueues onto its thread pool and returns immediately), so a slow
sweep cannot make ``/v1/healthz`` unresponsive.

Two run modes share one :class:`ReproServer`:

* :meth:`ReproServer.serve_forever` — the CLI foreground mode,
* :class:`ServerThread` — a context manager running the loop on a
  daemon thread, for tests and :mod:`examples.serve_client`.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Dict, Optional, Tuple

from ..runner.config import SweepGrid
from ..runner.faults import FailurePolicy
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


_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


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
        policy: Optional[FailurePolicy] = None,
        faults: Optional[str] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.tenants = TenantManager(cache_root=cache_dir)
        self.pool = RunnerPool(
            size=runners, workers=workers, policy=policy, faults=faults,
        )
        self.jobs = JobManager(self.pool, self.tenants, max_jobs=max_jobs)
        self._server: Optional[asyncio.AbstractServer] = None
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections (idempotent)."""
        if self._server is not None:
            return
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        # With port=0 the OS picked; report the port clients must use.
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def close(self, wait: bool = True) -> None:
        """Tear down jobs and the warm pool (HTTP must be stopped first)."""
        if self._closed:
            return
        self._closed = True
        self.jobs.close(wait=wait)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            try:
                method, path, headers, body = await self._read_request(reader)
            except _HttpError as error:
                await self._respond(
                    writer, error.status, error_body(error.message)
                )
                return
            except (asyncio.IncompleteReadError, ConnectionError, ValueError):
                return  # client hung up / garbage — nothing to answer
            try:
                status, payload = self._route(method, path, headers, body)
            except _HttpError as error:
                status, payload = error.status, error_body(error.message)
            except Exception as error:  # noqa: BLE001 — server must survive
                status, payload = 500, error_body(
                    f"internal error: {type(error).__name__}: {error}"
                )
            await self._respond(writer, status, payload)
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, Dict[str, str], bytes]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            raise ValueError("empty request")
        parts = request_line.split()
        if len(parts) != 3:
            raise _HttpError(400, f"malformed request line: {request_line!r}")
        method, target, _version = parts
        path = target.split("?", 1)[0]
        headers: Dict[str, str] = {}
        while True:
            line = (await reader.readline()).decode("latin-1")
            if line in ("\r\n", "\n", ""):
                break
            if ":" in line:
                name, value = line.split(":", 1)
                headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "0") or "0"
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
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path, headers, body

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload,
    ) -> None:
        """Send one JSON response.  *payload* may be a dict (rendered
        compactly) or pre-rendered text (the byte-exact report path)."""
        if isinstance(payload, str):
            body = payload.encode("utf-8")
        else:
            body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        try:
            writer.write(head + body)
            await writer.drain()
        except (ConnectionError, OSError):
            pass  # client gone; the job (if any) continues regardless

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


class ServerThread:
    """Run a :class:`ReproServer` on a daemon thread (tests, examples).

    ::

        with ServerThread(ReproServer(port=0)) as url:
            client = ReproClient(url)
    """

    def __init__(self, server: ReproServer) -> None:
        self.server = server
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()

    def start(self) -> str:
        """Start serving; returns the base URL once the port is bound."""
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("server failed to start within 30s")
        return self.server.url

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self.server.start())
            self._started.set()
            loop.run_forever()
        finally:
            loop.run_until_complete(self.server.stop())
            loop.close()

    def stop(self) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=30)
        self.server.close()

    def __enter__(self) -> str:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
