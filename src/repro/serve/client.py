"""Blocking HTTP client for the farm (stdlib ``http.client``).

One :class:`ServeClient` wraps one keep-alive connection; it is **not**
thread-safe — give each thread its own client.  A dropped connection
is re-opened and the request retried once (idempotent by design:
submissions dedup server-side through single-flight).
"""

from __future__ import annotations

import http.client
import json
from typing import Any, Iterator

__all__ = ["ServeClient"]


class ServeClient:
    """Talk to one farm instance at ``host:port``."""

    def __init__(self, host: str, port: int, timeout: float = 120.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conn: http.client.HTTPConnection | None = None

    # -- plumbing --------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def request(
        self, method: str, path: str, payload: Any | None = None
    ) -> tuple[int, dict[str, Any]]:
        """One request/response; returns ``(status, parsed body)``."""
        body = (
            json.dumps(payload, sort_keys=True).encode("utf-8")
            if payload is not None
            else None
        )
        headers = {"Content-Type": "application/json"} if body else {}
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                raw = response.read()
                break
            except (http.client.HTTPException, ConnectionError, OSError):
                self.close()
                if attempt:
                    raise
        try:
            parsed = json.loads(raw.decode("utf-8")) if raw else {}
        except ValueError:
            parsed = {"raw": raw.decode("utf-8", "replace")}
        return response.status, parsed

    # -- endpoints -------------------------------------------------------

    def submit(
        self,
        payload: Any,
        wait: bool = False,
        timeout: float | None = None,
    ) -> tuple[int, dict[str, Any]]:
        path = "/v1/jobs"
        if wait:
            path += "?wait=1"
            if timeout is not None:
                path += f"&timeout={timeout:g}"
        return self.request("POST", path, payload)

    def job(self, job_id: str) -> tuple[int, dict[str, Any]]:
        return self.request("GET", f"/v1/jobs/{job_id}")

    def stats(self) -> dict[str, Any]:
        status, payload = self.request("GET", "/v1/stats")
        if status != 200:
            raise RuntimeError(f"stats endpoint returned {status}")
        return payload

    def healthz(self) -> dict[str, Any]:
        return self.request("GET", "/v1/healthz")[1]

    def events(self, job_id: str) -> Iterator[dict[str, Any]]:
        """Stream a job's progress events as they are produced.

        Consumes the chunked ``/events`` response line by line;
        ``http.client`` de-chunks transparently.  The dedicated
        connection is closed by the server when the job ends.
        """
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/events")
            response = conn.getresponse()
            if response.status != 200:
                detail = response.read().decode("utf-8", "replace")
                raise RuntimeError(
                    f"event stream returned {response.status}: {detail}"
                )
            buffer = b""
            while True:
                chunk = response.read(4096)
                if not chunk:
                    break
                buffer += chunk
                while b"\n" in buffer:
                    line, _, buffer = buffer.partition(b"\n")
                    if line.strip():
                        yield json.loads(line)
        finally:
            conn.close()
