"""Running a farm: the daemon entry point and an embeddable thread.

:func:`serve_forever` is what ``repro-sr serve`` calls — it owns the
event loop, installs SIGTERM/SIGINT handlers that trigger the graceful
drain (in-flight compilations finish, cache statistics are persisted),
and only returns once the farm is fully shut down.

:class:`ServerThread` hosts the same loop on a daemon thread so tests
and the load benchmark can boot a real farm in-process, talk to it over
real sockets, and tear it down deterministically.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import threading
from typing import Any

from repro.serve.http import start_http_server
from repro.serve.service import CompileService, ServeConfig

__all__ = ["ServerThread", "serve_forever"]


async def _serve(service: CompileService, stop: asyncio.Event,
                 ready: "threading.Event | None" = None,
                 announce: bool = False) -> int:
    """Boot the farm, publish the bound port, park until ``stop``."""
    service.start()
    server = await start_http_server(service)
    port = server.sockets[0].getsockname()[1]
    service.bound_port = port  # type: ignore[attr-defined]
    if announce:
        print(
            f"repro-serve listening on {service.config.host}:{port} "
            f"(workers={service.config.workers}, "
            f"cache={service.cache_dir})",
            flush=True,
        )
    if ready is not None:
        ready.set()
    try:
        await stop.wait()
    finally:
        server.close()
        await server.wait_closed()
        await service.shutdown()
        if announce:
            print("repro-serve drained and stopped", flush=True)
    return 0


def serve_forever(config: ServeConfig) -> int:
    """Run the daemon until SIGTERM/SIGINT; returns an exit code.

    Signals flip one asyncio event; the teardown path then drains the
    worker pool exactly like the experiment matrix does (shared
    :class:`~repro.pool.GracefulPool` semantics) before the process
    exits.
    """
    service = CompileService(config)

    async def main() -> int:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(signum, stop.set)
        return await _serve(service, stop, announce=True)

    return asyncio.run(main())


class ServerThread:
    """A live farm on a background thread (tests, benchmarks).

    Usage::

        with ServerThread(ServeConfig(workers=2)) as server:
            client = ServeClient("127.0.0.1", server.port)
            ...

    ``start`` blocks until the socket is bound, so :attr:`port` is
    always valid inside the ``with`` body; ``stop`` performs the full
    graceful drain before returning.
    """

    def __init__(self, config: ServeConfig) -> None:
        self.service = CompileService(config)
        self.port: int = 0
        self._ready = threading.Event()
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )

    def _run(self) -> None:
        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            await _serve(self.service, self._stop, ready=self._ready)

        asyncio.run(main())

    def start(self) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(30.0):
            raise RuntimeError("serve thread failed to come up")
        self.port = getattr(self.service, "bound_port", 0)
        return self

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(60.0)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
