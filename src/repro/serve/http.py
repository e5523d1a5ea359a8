"""Minimal asyncio HTTP/1.1 codec over :class:`CompileService`.

Stdlib only — ``asyncio.start_server`` plus hand-rolled request
parsing; no web framework.  The surface is deliberately small:

====== =========================== ==========================================
Method Path                        Meaning
====== =========================== ==========================================
POST   ``/v1/jobs``                Submit a job; ``?wait=1`` blocks until
                                   terminal (``&timeout=S`` caps the wait).
GET    ``/v1/jobs/<id>``           Poll one job's snapshot.
GET    ``/v1/jobs/<id>/events``    Chunked stream of progress events, one
                                   JSON line per chunk, closing when the
                                   job reaches a terminal state.
GET    ``/v1/stats``               Service / cache counters.
GET    ``/v1/healthz``             Liveness (also reports draining).
====== =========================== ==========================================

Status mapping: 400 malformed payload or ``timeout`` (or an unreadable
request: a line over 64 KiB, more than 100 header lines), 404 unknown
job/path, 405 wrong method, 503 submitting while draining, 500 handler
crash.  Connections
are keep-alive by default (a :class:`~repro.serve.client.ServeClient`
reuses its one connection); an event stream always closes its connection when done,
as chunked encoding is the response's framing.
"""

from __future__ import annotations

import asyncio
import json
import math
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.serve.jobs import BadRequest, Job
from repro.serve.service import CompileService

__all__ = ["start_http_server"]

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Largest accepted request body; a job payload is a few hundred bytes.
_MAX_BODY = 1 << 20

#: Most header lines one request may send (``http.client``'s own cap).
_MAX_HEADERS = 100

#: Hard cap on ``?wait=1`` blocking, seconds.
_MAX_WAIT = 600.0


class _HttpError(Exception):
    """Terminates one request with a status + JSON error body."""

    def __init__(self, status: int, detail: str) -> None:
        super().__init__(detail)
        self.status = status
        self.detail = detail


def _head(status: int, length: int | None, keep_alive: bool,
          chunked: bool = False) -> bytes:
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        "Content-Type: application/json",
    ]
    if chunked:
        lines.append("Transfer-Encoding: chunked")
    else:
        lines.append(f"Content-Length: {length or 0}")
    lines.append(
        f"Connection: {'keep-alive' if keep_alive else 'close'}"
    )
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")


def _json_response(writer: asyncio.StreamWriter, status: int,
                   payload: Any, keep_alive: bool) -> None:
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    writer.write(_head(status, len(body), keep_alive) + body)


async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict[str, str], bytes] | None:
    """Parse one request; ``None`` on clean EOF (client closed)."""
    try:
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise _HttpError(400, "malformed request line")
        method, target = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        for _ in range(_MAX_HEADERS + 1):
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise _HttpError(400, f"more than {_MAX_HEADERS} header lines")
    except ValueError:  # readline's answer to a line over its 64 KiB limit
        raise _HttpError(400, "request or header line too long") from None
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        length = -1
    if length < 0:
        raise _HttpError(400, "malformed Content-Length")
    if length > _MAX_BODY:
        raise _HttpError(400, f"body too large ({length} bytes)")
    body = await reader.readexactly(length) if length else b""
    return method, target, headers, body


async def _stream_events(service: CompileService, job: Job,
                         writer: asyncio.StreamWriter) -> None:
    """Chunk out ``job.events`` live until the job is terminal."""
    writer.write(_head(200, None, keep_alive=False, chunked=True))
    sent = 0
    while True:
        while sent < len(job.events):
            line = (
                json.dumps(job.events[sent], sort_keys=True) + "\n"
            ).encode("utf-8")
            writer.write(f"{len(line):x}\r\n".encode("ascii"))
            writer.write(line + b"\r\n")
            sent += 1
        await writer.drain()
        if job.terminal and sent >= len(job.events):
            break
        await job.wait(0.05)
    writer.write(b"0\r\n\r\n")
    await writer.drain()


def _wait_seconds(query: str) -> float | None:
    """How long ``?wait=1[&timeout=S]`` blocks; ``None`` answers at once.

    Raises ``ValueError`` on a timeout that is not a finite,
    non-negative number.
    """
    params = parse_qs(query)
    timeout = float(params.get("timeout", [_MAX_WAIT])[-1])
    if not 0.0 <= timeout < math.inf:  # NaN fails both comparisons
        raise ValueError(f"timeout must be finite and >= 0, got {timeout}")
    if params.get("wait", ["0"])[-1] not in ("1", "true", "yes"):
        return None
    return min(timeout, _MAX_WAIT)


async def _handle_post_jobs(service: CompileService, query: str,
                            body: bytes, keep_alive: bool,
                            writer: asyncio.StreamWriter) -> None:
    if service.draining:
        raise _HttpError(503, "service is draining; job rejected")
    try:
        payload = json.loads(body.decode("utf-8")) if body else {}
    except (ValueError, UnicodeDecodeError):
        service.stats["malformed"] += 1
        raise _HttpError(400, "request body is not valid JSON") from None
    try:
        timeout = _wait_seconds(query)
    except ValueError as error:
        service.stats["malformed"] += 1
        raise _HttpError(400, str(error)) from None
    try:
        job = service.submit(payload)
    except BadRequest as error:
        service.stats["malformed"] += 1
        raise _HttpError(400, str(error)) from None
    if timeout is not None:
        finished = await job.wait(timeout)
        _json_response(
            writer, 200 if finished else 202, job.snapshot(), keep_alive
        )
        return
    _json_response(
        writer,
        202,
        {"id": job.id, "state": job.state, "key": job.key},
        keep_alive,
    )


async def _dispatch(service: CompileService, method: str, target: str,
                    body: bytes, keep_alive: bool,
                    writer: asyncio.StreamWriter) -> bool:
    """Route one request; returns False when the connection must close."""
    url = urlsplit(target)
    path = url.path.rstrip("/") or "/"

    if path == "/v1/jobs":
        if method != "POST":
            raise _HttpError(405, "use POST /v1/jobs")
        await _handle_post_jobs(service, url.query, body, keep_alive, writer)
        return keep_alive

    if path.startswith("/v1/jobs/"):
        if method != "GET":
            raise _HttpError(405, "job views are GET-only")
        rest = path[len("/v1/jobs/"):]
        job_id, _, tail = rest.partition("/")
        job = service.store.get(job_id)
        if job is None:
            raise _HttpError(404, f"unknown job {job_id!r}")
        if tail == "events":
            await _stream_events(service, job, writer)
            return False
        if tail:
            raise _HttpError(404, f"unknown job view {tail!r}")
        _json_response(writer, 200, job.snapshot(), keep_alive)
        return keep_alive

    if path == "/v1/stats":
        if method != "GET":
            raise _HttpError(405, "stats are GET-only")
        _json_response(writer, 200, service.stats_snapshot(), keep_alive)
        return keep_alive

    if path == "/v1/healthz":
        if method != "GET":
            raise _HttpError(405, "healthz is GET-only")
        _json_response(
            writer, 200,
            {"ok": True, "draining": service.draining},
            keep_alive,
        )
        return keep_alive

    raise _HttpError(404, f"no route for {path}")


async def _handle_connection(service: CompileService,
                             reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
    try:
        while True:
            try:
                request = await _read_request(reader)
            except (asyncio.IncompleteReadError, ConnectionError):
                break
            except asyncio.CancelledError:
                # Event loop going down mid-keep-alive: close quietly.
                break
            except _HttpError as error:
                # Unreadable request: where the next one starts is unknown,
                # so answer and close (``close`` flushes the response).
                _json_response(
                    writer, error.status, {"error": error.detail}, False
                )
                break
            if request is None:
                break
            method, target, headers, body = request
            keep_alive = headers.get("connection", "").lower() != "close"
            try:
                keep_alive = await _dispatch(
                    service, method, target, body, keep_alive, writer
                )
            except _HttpError as error:
                _json_response(
                    writer,
                    error.status,
                    {"error": error.detail},
                    keep_alive,
                )
            except ConnectionError:
                break
            except Exception as error:  # noqa: BLE001 - 500 firewall
                _json_response(
                    writer,
                    500,
                    {"error": f"{type(error).__name__}: {error}"},
                    False,
                )
                keep_alive = False
            await writer.drain()
            if not keep_alive:
                break
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError, asyncio.CancelledError):
            # CancelledError: the loop is shutting down around us; the
            # transport is already being torn down, nothing left to wait.
            pass


async def start_http_server(service: CompileService) -> asyncio.Server:
    """Bind and start serving; the caller owns the returned server."""

    async def handler(reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        await _handle_connection(service, reader, writer)

    return await asyncio.start_server(
        handler, host=service.config.host, port=service.config.port
    )
