"""The discrete-event environment: clock, agenda, and event loop."""

from __future__ import annotations

import heapq
from typing import Any, Generator, Iterable, Optional

from repro.errors import SimulationError
from repro.sim.events import AllOf, Event, Timeout
from repro.sim.process import Process
from repro.trace.tracer import NULL_TRACER, Tracer


class Environment:
    """Simulation clock and agenda.

    Events scheduled for the same instant are processed in scheduling
    order (FIFO), which makes runs fully deterministic — important both for
    reproducible benchmarks and for modelling FCFS link arbitration in the
    wormhole simulator, where "first come" must mean the same thing on
    every run.  The FIFO tie-break counter is **per environment**, so two
    environments never share ordering state and replays are reproducible
    regardless of what else ran in the process.

    Parameters
    ----------
    tracer:
        Structured event sink (:mod:`repro.trace`).  Defaults to the
        null tracer; when enabled, the kernel emits ``sim``-category
        instants for event scheduling and agenda steps, and resources
        built on this environment emit their own categories.
    """

    def __init__(self, tracer: Tracer | None = None):
        self._now = 0.0
        self._agenda: list[tuple[float, int, Event]] = []
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

    def schedule(self, event: Event, delay: float = 0.0) -> None:
        """Place a triggered event on the agenda ``delay`` from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: delay={delay}")
        heapq.heappush(self._agenda, (self._now + delay, self._next_id, event))
        self._next_id += 1
        if self._tracing:
            self.tracer.instant(
                "sim",
                "schedule",
                self._now,
                track="kernel",
                due=self._now + delay,
                event=type(event).__name__,
            )

    def step(self) -> None:
        """Process the single next event on the agenda."""
        if not self._agenda:
            raise SimulationError("step() on an empty agenda")
        when, _, event = heapq.heappop(self._agenda)
        if when < self._now:  # pragma: no cover - guarded by schedule()
            raise SimulationError("agenda went backwards in time")
        self._now = when
        if self._tracing:
            self.tracer.instant(
                "sim",
                "step",
                when,
                track="kernel",
                event=type(event).__name__,
            )
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks or ():
            callback(event)
        # An event nobody waited on that failed would silently swallow its
        # exception; surface it instead (mirrors simpy's behaviour).
        if not callbacks and event._ok is False:
            raise event.value

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
        while self._agenda and self._agenda[0][0] <= horizon:
            self.step()
        if horizon != float("inf"):
            self._now = horizon
        return None
