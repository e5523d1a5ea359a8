"""One-shot events for the discrete-event kernel.

An :class:`Event` has a three-state lifecycle: *pending* (created, not yet
triggered), *triggered* (scheduled on the environment's agenda with a value
or an exception), and *processed* (its callbacks have run).  Processes wait
on events by yielding them; the kernel resumes the process when the event
is processed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.sim.environment import Environment

_UNSET = object()


def _process_event(event: "Event") -> None:
    """A triggered event's agenda entry: run its callbacks."""
    callbacks, event.callbacks = event.callbacks, None
    for callback in callbacks or ():
        callback(event)
    # An event nobody waited on that failed would silently swallow its
    # exception; surface it instead (mirrors simpy's behaviour).
    if not callbacks and event._ok is False:
        raise event.value


class Event:
    """A one-shot occurrence that processes can wait on.

    Events are triggered exactly once, either with :meth:`succeed` (a value)
    or :meth:`fail` (an exception).  Triggering schedules the event on the
    environment agenda at the current simulation time; callbacks run when
    the environment processes it.
    """

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: list[Callable[[Event], None]] | None = []
        self._value: Any = _UNSET
        self._ok: bool | None = None

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled with a value/exception."""
        return self._value is not _UNSET

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True when the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event value is not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception instance when it failed)."""
        if self._value is _UNSET:
            raise SimulationError("event value is not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.call_later(0.0, _process_event, self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception to be raised in waiters."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() requires an exception, got {exception!r}")
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.env.call_later(0.0, _process_event, self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed.

        If the event is already processed the callback runs immediately,
        which keeps ``yield``-ing on an old event well defined.
        """
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed" if self.processed
            else "triggered" if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env.call_later(delay, _process_event, self)


class AllOf(Event):
    """Fires when *all* child events have fired; value maps event->value."""

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = tuple(events)
        if any(event.env is not env for event in self.events):
            raise SimulationError("condition mixes events from different environments")
        self._unfired = len(self.events)
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._unfired -= 1
        if self._unfired == 0:
            # Only events that have actually fired (been processed by the
            # agenda) — a Timeout is "triggered" from construction but has
            # not occurred until its instant arrives.
            self.succeed(
                {e: e.value for e in self.events if e.processed and e.ok}
            )
