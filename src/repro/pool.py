"""Graceful worker-pool lifecycle, shared by the matrix and the farm.

Both process-parallel consumers of the compiler — the experiment
matrix's ``jobs=N`` fan-out and the ``repro.serve`` compile farm — need
the same shutdown story: on SIGTERM/SIGINT stop accepting work, let the
compilations already running finish (their results, and their cache
writes, are about to land — killing them wastes the LP work), cancel
everything still queued, and flush accumulated statistics to disk
before the process exits.  :class:`GracefulPool` packages that policy
around a :class:`~concurrent.futures.ProcessPoolExecutor` so neither
consumer grows its own abrupt ``executor.shutdown()`` teardown.

The pool never installs signal handlers behind the caller's back:
:meth:`install_signal_handlers` is explicit, restores the previous
handlers on :meth:`shutdown`, and degrades to a no-op off the main
thread (where the interpreter forbids handler installation).
"""

from __future__ import annotations

import signal
import threading
from concurrent.futures import Future, ProcessPoolExecutor, wait
from typing import Any, Callable, Iterable

__all__ = ["GracefulPool"]

#: Signals that trigger a drain when handlers are installed.
_DRAIN_SIGNALS = (signal.SIGTERM, signal.SIGINT)


class GracefulPool:
    """A :class:`ProcessPoolExecutor` with drain-on-signal semantics.

    Parameters
    ----------
    max_workers:
        Worker process count (forwarded to the executor).
    on_shutdown:
        Callables invoked exactly once during :meth:`shutdown`, after
        the drain — the hook both consumers use to persist cache/service
        statistics.  Exceptions are collected, not propagated, so one
        failing callback cannot abort the teardown of the rest.

    Usage::

        with GracefulPool(max_workers=4, on_shutdown=[persist]) as pool:
            pool.install_signal_handlers()
            futures = [pool.submit(fn, arg) for arg in work]
            for future in futures:
                if future.cancelled():      # drained by a signal
                    continue
                consume(future.result())

    On SIGTERM the handler calls :meth:`initiate_drain`: queued-but-
    unstarted futures are cancelled (``future.cancelled()`` becomes
    true), running ones complete normally, and :attr:`draining` lets the
    consumer loop notice it should stop submitting and wrap up.
    """

    def __init__(
        self,
        max_workers: int,
        on_shutdown: Iterable[Callable[[], None]] = (),
    ):
        self.max_workers = max_workers
        self._executor = ProcessPoolExecutor(max_workers=max_workers)
        self._on_shutdown = list(on_shutdown)
        self._pending: set[Future] = set()
        self._lock = threading.Lock()
        self._draining = threading.Event()
        self._closed = False
        self._previous_handlers: dict[int, Any] = {}
        self.shutdown_errors: list[BaseException] = []

    # -- submission ------------------------------------------------------

    @property
    def draining(self) -> bool:
        """True once a drain started; no new work is accepted."""
        return self._draining.is_set()

    def submit(self, fn: Callable, /, *args: Any, **kwargs: Any) -> Future:
        """Submit one task; raises :class:`RuntimeError` while draining."""
        if self.draining or self._closed:
            raise RuntimeError("pool is draining; no new work accepted")
        future = self._executor.submit(fn, *args, **kwargs)
        with self._lock:
            self._pending.add(future)
        future.add_done_callback(self._discard)
        return future

    def _discard(self, future: Future) -> None:
        with self._lock:
            self._pending.discard(future)

    def in_flight(self) -> int:
        """Futures submitted but not yet done (running or queued)."""
        with self._lock:
            return len(self._pending)

    # -- drain / shutdown ------------------------------------------------

    def initiate_drain(self) -> None:
        """Stop accepting work and cancel queued-but-unstarted futures.

        Safe to call from a signal handler: it only flips the event and
        cancels futures (running ones ignore the cancel), never blocks.
        """
        self._draining.set()
        with self._lock:
            pending = list(self._pending)
        for future in pending:
            future.cancel()

    def drain(self) -> None:
        """Block until every in-flight future is done (or cancelled)."""
        with self._lock:
            pending = list(self._pending)
        wait(pending)

    def install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT to :meth:`initiate_drain`.

        The previous handlers are chained (so e.g. SIGINT still raises
        :class:`KeyboardInterrupt` for the consumer loop to unwind) and
        restored by :meth:`shutdown`.  Off the main thread this is a
        no-op — the interpreter only allows handler changes there.
        """
        if threading.current_thread() is not threading.main_thread():
            return
        for signum in _DRAIN_SIGNALS:
            previous = signal.getsignal(signum)
            self._previous_handlers[signum] = previous

            def _handler(
                num: int, frame: Any, _chain: Any = previous
            ) -> None:
                self.initiate_drain()
                if callable(_chain):
                    _chain(num, frame)

            signal.signal(signum, _handler)

    def _restore_signal_handlers(self) -> None:
        if threading.current_thread() is not threading.main_thread():
            return
        for signum, previous in self._previous_handlers.items():
            signal.signal(signum, previous)
        self._previous_handlers.clear()

    def shutdown(self, drain: bool = True) -> None:
        """Drain (optionally), run the shutdown hooks, stop the workers.

        Idempotent; the hooks run exactly once.  With ``drain=False``
        in-flight work is abandoned (queued futures cancelled) — the
        abrupt path, for tests and emergency teardown only.
        """
        if self._closed:
            return
        self._closed = True
        if drain:
            self.drain()
        else:
            self.initiate_drain()
        self._restore_signal_handlers()
        for callback in self._on_shutdown:
            try:
                callback()
            except BaseException as error:  # noqa: BLE001 - collected
                self.shutdown_errors.append(error)
        self._executor.shutdown(wait=drain, cancel_futures=not drain)

    def __enter__(self) -> "GracefulPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown(drain=exc_info[0] is None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "draining" if self.draining else "open"
        return (
            f"<GracefulPool workers={self.max_workers} {state} "
            f"in_flight={self.in_flight()}>"
        )
