"""The discrete-event environment: clock, agenda, and event loop."""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import InvalidDelayError, SimulationError
from repro.sim.events import AllOf, Event, Timeout, _process_event
from repro.sim.process import Process
from repro.trace.tracer import NULL_TRACER, Tracer


def _label(fn: Callable[[Any], None], arg: Any) -> str:
    """A ``sim`` instant's name for an entry: event class or callback name."""
    return (type(arg) if fn is _process_event else getattr(fn, "func", fn)).__name__


class Environment:
    """Simulation clock and agenda.

    The agenda holds entries ``(time, seq, fn, arg)`` — a triggered
    :class:`Event`, or a bare callback (:meth:`call_later`) — and runs
    those due at one instant in scheduling order: runs are deterministic,
    and FCFS link arbitration means the same thing on every run.  The tie
    counter is per environment, so replays never share ordering state.

    Parameters
    ----------
    tracer:
        Structured event sink (:mod:`repro.trace`).  Defaults to the
        null tracer; when enabled, the kernel emits ``sim``-category
        instants for entry scheduling and agenda steps, and resources
        built on this environment emit their own categories.
    """

    def __init__(self, tracer: Tracer | None = None):
        self._now = 0.0
        self._agenda: list[tuple[float, int, Callable[[Any], None], Any]] = []
        self._next_id = 0
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Hot-path guard: one attribute read instead of a method call per
        # kernel event when tracing is off (the common case).
        self._tracing = self.tracer.enabled

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    # -- event construction helpers ------------------------------------

    def event(self) -> Event:
        """A fresh pending event bound to this environment."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a new cooperative process driving ``generator``."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """An event firing once every event in ``events`` has fired."""
        return AllOf(self, events)

    # -- agenda ---------------------------------------------------------

    def call_later(self, delay: float, fn: Callable[[Any], None], arg: Any) -> None:
        """Run ``fn(arg)`` ``delay`` from now (FIFO among same-time entries)."""
        if not delay >= 0:  # rejects negatives and NaN in one test
            raise InvalidDelayError(
                f"delay must be a non-negative duration, got {delay!r}: "
                "entries cannot run in the past"
            )
        due = self._now + delay
        heapq.heappush(self._agenda, (due, self._next_id, fn, arg))
        self._next_id += 1
        if self._tracing:
            self.tracer.instant("sim", "schedule", self._now, track="kernel",
                                due=due, event=_label(fn, arg))

    def step(self) -> None:
        """Process the single next entry on the agenda."""
        if not self._agenda:
            raise SimulationError("step() on an empty agenda")
        when, _, fn, arg = heapq.heappop(self._agenda)
        self._now = when
        if self._tracing:
            self.tracer.instant("sim", "step", when, track="kernel",
                                event=_label(fn, arg))
        fn(arg)

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the event loop.

        ``until`` may be ``None`` (run until the agenda drains), a time
        (run up to and including that instant), or an :class:`Event`
        (run until it is processed; returns its value).
        """
        if isinstance(until, Event):
            stop = until
            while not stop.processed:
                if not self._agenda:
                    raise SimulationError(
                        "agenda drained before the awaited event fired"
                    )
                self.step()
            if not stop.ok:
                raise stop.value
            return stop.value

        horizon = float("inf") if until is None else float(until)
        if horizon < self._now:
            raise SimulationError(
                f"run(until={horizon}) is in the past (now={self._now})"
            )
        # step() inlined: this loop runs every entry of every simulation.
        agenda, pop, tracing = self._agenda, heapq.heappop, self._tracing
        while agenda and agenda[0][0] <= horizon:
            when, _, fn, arg = pop(agenda)
            self._now = when
            if tracing:
                self.tracer.instant("sim", "step", when, track="kernel",
                                    event=_label(fn, arg))
            fn(arg)
        if horizon != float("inf"):
            self._now = horizon
        return None
