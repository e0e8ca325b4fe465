"""Asyncio HTTP/JSON front end for the job supervisor.

A deliberately small HTTP/1.1 implementation on
``asyncio.start_server`` — stdlib only, one request per connection
(``Connection: close``), JSON in and out with sorted keys so response
bytes are deterministic.  The interesting behaviour all delegates to
:class:`~repro.serve.supervisor.JobSupervisor`; this layer only
translates outcomes to status codes:

========  ======================================  ====================
Method    Path                                    Outcome
========  ======================================  ====================
POST      ``/jobs``                               200 cache hit /
                                                  202 accepted /
                                                  400 bad spec /
                                                  429 + Retry-After /
                                                  503 draining
GET       ``/jobs``                               job list
GET       ``/jobs/<id>``                          job status + result
GET       ``/jobs/<id>/progress``                 worker obs snapshot
                                                  (``?wait=<s>`` holds
                                                  the reply until
                                                  progress advances)
GET       ``/jobs/<id>/trace``                    stitched causal trace
GET       ``/healthz``                            ok|draining + counts
GET       ``/metrics``                            Prometheus text
========  ======================================  ====================

``POST /jobs`` honors an ``X-Repro-Trace-Id`` header (8-64 hex chars);
absent one, the job's trace id is minted from its fingerprint.

Requests that trickle in slower than the policy's ``read_timeout``
(slow-loris) are answered 408 and closed — one stuck client never
pins a connection handler.  All timing runs through the injectable
:class:`~repro.serve.clock.ServeClock` (lint rule RPL106).
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.serve.clock import ServeClock
from repro.serve.supervisor import (
    CANCELLED,
    DONE,
    FAILED,
    INTERRUPTED,
    RUNNING,
    AdmissionError,
    DrainingError,
    JobSupervisor,
)

_TERMINAL_STATES = (DONE, FAILED, INTERRUPTED, CANCELLED)


def _parse_query(query: str) -> Dict[str, str]:
    """Minimal query-string parse (last value wins; no unquoting needed
    for the numeric parameters this server accepts)."""
    params: Dict[str, str] = {}
    for piece in query.split("&"):
        if not piece:
            continue
        name, _, value = piece.partition("=")
        params[name] = value
    return params

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Request bodies past this are rejected 413 (spec payloads are small).
MAX_BODY = 1 << 20


class JobServer:
    """One listening socket in front of one supervisor."""

    def __init__(
        self,
        supervisor: JobSupervisor,
        host: str = "127.0.0.1",
        port: int = 0,
        clock: Optional[ServeClock] = None,
        metrics: Optional[Any] = None,
    ) -> None:
        self.supervisor = supervisor
        self.host = host
        self.port = port
        self.clock = clock if clock is not None else supervisor.clock
        self._server: Optional[asyncio.AbstractServer] = None
        self._registry = metrics
        if metrics is not None:
            self._m_requests = metrics.counter(
                "repro_serve_http_requests_total",
                "HTTP requests handled",
                deterministic=False,
            )
            self._m_latency = metrics.histogram(
                "repro_serve_http_latency_seconds",
                buckets=(0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0),
                help="request handling latency",
                deterministic=False,
            )
        else:
            self._m_requests = None
            self._m_latency = None

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start serving (port 0 picks an ephemeral port,
        readable from :attr:`port` afterwards)."""
        self.supervisor.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def run_until_shutdown(self, shutdown: Any) -> None:
        """Serve until ``shutdown.requested`` flips, then drain."""
        if self._server is None:
            await self.start()
        while not shutdown.requested:
            await self.clock.aio_sleep(self.supervisor.policy.poll_interval)
        await self.stop()  # stop accepting before cancelling work
        await asyncio.get_event_loop().run_in_executor(
            None, self.supervisor.drain
        )

    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        start = self.clock.monotonic()
        try:
            try:
                request = await self.clock.wait_for(
                    self._read_request(reader),
                    self.supervisor.policy.read_timeout,
                )
            except asyncio.TimeoutError:
                await self._respond(
                    writer, 408, {"error": "request read timed out"}
                )
                return
            except _BadRequest as error:
                await self._respond(writer, error.status, {"error": str(error)})
                return
            method, path, body, req_headers = request
            path, _, query = path.partition("?")
            response = await self._route_async(
                method, path, query, body, req_headers, start
            )
            status, payload, headers, raw = response
            await self._respond(writer, status, payload, headers, raw)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        except Exception as error:  # defensive: structured 500, no hang
            try:
                await self._respond(
                    writer, 500, {"error": f"internal error: {error!r}"}
                )
            except Exception:
                pass
        finally:
            if self._m_requests is not None:
                self._m_requests.inc()
                self._m_latency.observe(self.clock.monotonic() - start)
            try:
                writer.close()
            except Exception:
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, Optional[Dict[str, Any]], Dict[str, str]]:
        line = await reader.readline()
        if not line:
            raise _BadRequest(400, "empty request")
        try:
            method, path, _version = line.decode("latin-1").split(None, 2)
        except ValueError:
            raise _BadRequest(400, "malformed request line") from None
        headers: Dict[str, str] = {}
        while True:
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            try:
                name, value = header.decode("latin-1").split(":", 1)
            except ValueError:
                raise _BadRequest(400, "malformed header") from None
            headers[name.strip().lower()] = value.strip()
        content_length = 0
        if "content-length" in headers:
            try:
                content_length = int(headers["content-length"])
            except ValueError:
                raise _BadRequest(400, "bad Content-Length") from None
        if content_length > MAX_BODY:
            raise _BadRequest(413, "request body too large")
        body: Optional[Dict[str, Any]] = None
        if content_length:
            raw = await reader.readexactly(content_length)
            try:
                body = json.loads(raw.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                raise _BadRequest(400, "request body is not valid JSON") from None
        return method.upper(), path, body, headers

    # ------------------------------------------------------------------
    async def _route_async(
        self,
        method: str,
        path: str,
        query: str,
        body: Optional[Dict[str, Any]],
        req_headers: Dict[str, str],
        start: float,
    ) -> Tuple[int, Optional[Dict[str, Any]], Dict[str, str], Optional[bytes]]:
        """Async routing shim: long-polls park here; everything else is
        the synchronous :meth:`_route` table."""
        if method == "GET" and path.startswith("/jobs/"):
            parts = path[len("/jobs/"):].split("/")
            if parts[1:] == ["progress"] and query:
                params = _parse_query(query)
                if "wait" in params:
                    job = self.supervisor.get(parts[0])
                    if job is None:
                        return (
                            404,
                            {"error": f"no such job {parts[0]!r}"},
                            {},
                            None,
                        )
                    return await self._progress_wait(job, params)
        return self._route(method, path, body, req_headers, start)

    async def _progress_wait(
        self, job: Any, params: Dict[str, str]
    ) -> Tuple[int, Optional[Dict[str, Any]], Dict[str, str], Optional[bytes]]:
        """``?wait=<seconds>`` long-poll: hold the request until the
        job's progress advances past ``since`` (default: its value at
        arrival), the job reaches a terminal state, or the clamped wait
        elapses — then answer with the normal progress body."""
        try:
            wait = float(params["wait"])
            since = int(params["since"]) if "since" in params else None
        except ValueError:
            return (
                400,
                {"error": "wait/since must be numeric"},
                {},
                None,
            )
        wait = max(0.0, min(wait, self.supervisor.policy.long_poll_max))
        deadline = self.clock.monotonic() + wait
        snapshot = self.supervisor.progress(job)
        baseline = (
            since
            if since is not None
            else int(snapshot.get("cells_completed", 0) or 0)
        )
        while True:
            snapshot = self.supervisor.progress(job)
            cells = int(snapshot.get("cells_completed", 0) or 0)
            if (
                job.state in _TERMINAL_STATES
                or cells > baseline
                or self.clock.monotonic() >= deadline
            ):
                snapshot["state"] = job.state
                return 200, snapshot, {}, None
            await self.clock.aio_sleep(self.supervisor.policy.poll_interval)

    def _route(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]],
        req_headers: Optional[Dict[str, str]] = None,
        start: Optional[float] = None,
    ) -> Tuple[int, Optional[Dict[str, Any]], Dict[str, str], Optional[bytes]]:
        headers: Dict[str, str] = {}
        req_headers = req_headers or {}
        if path == "/jobs" and method == "POST":
            if body is None:
                return 400, {"error": "POST /jobs requires a JSON body"}, headers, None
            try:
                job = self.supervisor.submit(
                    body, trace_id=req_headers.get("x-repro-trace-id")
                )
            except AdmissionError as error:
                headers["Retry-After"] = f"{error.retry_after:g}"
                return 429, {"error": str(error)}, headers, None
            except DrainingError as error:
                return 503, {"error": str(error)}, headers, None
            except ConfigurationError as error:
                return 400, {"error": str(error)}, headers, None
            status = 200 if job.cached else 202
            recorder = self.supervisor.causal
            if recorder is not None and job.trace_id is not None:
                # The request span is the root of the job's causal
                # timeline; admission/attempts flow from it by id.
                recorder.record(
                    "serve.request",
                    trace=job.trace_id,
                    role="server",
                    t0=start if start is not None else None,
                    t1=self.clock.monotonic(),
                    method=method,
                    path=path,
                    status=status,
                    job=job.id,
                )
            return status, {"job": job.view()}, headers, None
        if path == "/jobs" and method == "GET":
            return (
                200,
                {"jobs": [job.view() for job in self.supervisor.jobs()]},
                headers,
                None,
            )
        if path.startswith("/jobs/"):
            if method != "GET":
                return 405, {"error": "use GET"}, headers, None
            parts = path[len("/jobs/"):].split("/")
            job = self.supervisor.get(parts[0])
            if job is None:
                return 404, {"error": f"no such job {parts[0]!r}"}, headers, None
            if len(parts) == 1:
                return 200, {"job": job.view()}, headers, None
            if parts[1:] == ["progress"]:
                return 200, self.supervisor.progress(job), headers, None
            if parts[1:] == ["trace"]:
                stitched = self.supervisor.trace_view(job)
                if stitched is None:
                    return (
                        404,
                        {"error": "tracing disabled (no workdir)"},
                        headers,
                        None,
                    )
                return 200, stitched, headers, None
            return 404, {"error": f"no such endpoint {path!r}"}, headers, None
        if path == "/healthz" and method == "GET":
            counts = self.supervisor.counts()
            workers = [
                {"job": job.id, "pid": job.worker_pid}
                for job in self.supervisor.jobs()
                if job.state == RUNNING and job.worker_pid is not None
            ]
            return (
                200,
                {
                    "status": (
                        "draining" if self.supervisor.draining else "ok"
                    ),
                    "jobs": counts,
                    "workers": workers,
                    "cache": self.supervisor.cache.stats(),
                },
                headers,
                None,
            )
        if path == "/metrics" and method == "GET":
            if self._registry is None:
                return 404, {"error": "metrics registry disabled"}, headers, None
            text = self._registry.render_prometheus()
            if not text.endswith("\n"):
                text += "\n"  # scrapers require a trailing newline
            headers["Content-Type"] = (
                "text/plain; version=0.0.4; charset=utf-8"
            )
            return 200, None, headers, text.encode("utf-8")
        return 404, {"error": f"no such endpoint {method} {path}"}, headers, None

    # ------------------------------------------------------------------
    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Optional[Dict[str, Any]],
        headers: Optional[Dict[str, str]] = None,
        raw: Optional[bytes] = None,
    ) -> None:
        headers = dict(headers or {})
        if raw is None:
            raw = (
                json.dumps(payload, sort_keys=True, separators=(",", ":"))
                + "\n"
            ).encode("utf-8")
            headers.setdefault("Content-Type", "application/json")
        headers["Content-Length"] = str(len(raw))
        headers["Connection"] = "close"
        reason = _REASONS.get(status, "Unknown")
        head = [f"HTTP/1.1 {status} {reason}"]
        head.extend(f"{name}: {value}" for name, value in headers.items())
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        writer.write(raw)
        await writer.drain()


class _BadRequest(Exception):
    def __init__(self, status: int, message: str) -> None:
        self.status = status
        super().__init__(message)
