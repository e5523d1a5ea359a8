"""The discrete-event environment: clock, agenda, and event loop."""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Optional

from repro.errors import InvalidDelayError, SimulationError
from repro.trace.tracer import NULL_TRACER, Tracer


def _label(fn: Callable[[Any], None]) -> str:
    """A ``sim`` instant's name for an entry: its callback's name."""
    return getattr(fn, "func", fn).__name__


class Environment:
    """Simulation clock and agenda.

    The agenda holds entries ``(time, seq, fn, arg)``, each scheduled by
    :meth:`call_later`, and runs those due at one instant in scheduling
    order: runs are deterministic, and FCFS link arbitration means the
    same thing on every run.  The tie counter is per environment, so
    replays never share ordering state.  An entry due later than now goes
    on a heap; one due now (a zero delay, or one too small to move the
    clock) joins a FIFO lane, whose entries are all due now and in
    ``seq`` order.  :meth:`run` takes whichever of the lane's head and the
    heap's top comes first by ``(time, seq)``: the order of one heap.

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
        self._lane: deque[tuple[float, int, Callable[[Any], None], Any]] = deque()
        self._next_id = 0
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Hot-path guard: one attribute read instead of a method call per
        # kernel event when tracing is off (the common case).
        self._tracing = self.tracer.enabled

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    def call_later(self, delay: float, fn: Callable[[Any], None], arg: Any) -> None:
        """Run ``fn(arg)`` ``delay`` from now (FIFO among same-time entries)."""
        if not delay >= 0:  # rejects negatives and NaN in one test
            raise InvalidDelayError(
                f"delay must be a non-negative duration, got {delay!r}: "
                "entries cannot run in the past"
            )
        now = self._now
        due = now + delay
        if due == now:
            self._lane.append((due, self._next_id, fn, arg))
        else:
            heapq.heappush(self._agenda, (due, self._next_id, fn, arg))
        self._next_id += 1
        if self._tracing:
            self.tracer.instant("sim", "schedule", self._now, track="kernel",
                                due=due, event=_label(fn))

    def run(self, until: Optional[float] = None) -> None:
        """Run the agenda until it drains, or up to and including the
        instant ``until`` (the clock then reads ``until``)."""
        horizon = float("inf") if until is None else float(until)
        if not horizon >= self._now:  # rejects the past and NaN in one test
            raise SimulationError(
                f"run(until={horizon}) is not at or after now={self._now}"
            )
        # This loop runs every entry of every simulation.  The lane's
        # entries are due now, never past the horizon, and the clock does
        # not move until the lane is empty.
        agenda, lane, tracing = self._agenda, self._lane, self._tracing
        pop, popleft = heapq.heappop, lane.popleft
        while True:
            if lane:
                entry = pop(agenda) if agenda and agenda[0] < lane[0] else popleft()
            elif agenda and agenda[0][0] <= horizon:
                entry = pop(agenda)
            else:
                break
            when, _, fn, arg = entry
            self._now = when
            if tracing:
                self.tracer.instant("sim", "step", when, track="kernel",
                                    event=_label(fn))
            fn(arg)
        if horizon != float("inf"):
            self._now = horizon

    # -- generator driver ----------------------------------------------

    def timeout(self, delay: float) -> float:
        """What a :meth:`process` generator yields to sleep ``delay``."""
        return delay

    def process(self, generator: Generator[float, None, None]) -> None:
        """Run ``generator`` from now on, sleeping each delay it yields.

        Each yield is one agenda entry.  Only the ``sim.events_per_s``
        probe of ``benchmarks/e2e/rounds.py`` drives generators (N tickers
        x M ``yield env.timeout(1.0)``); the driver goes once that probe
        calls :meth:`call_later` (ROADMAP item 1b).
        """
        self.call_later(0.0, self._resume, generator)

    def _resume(self, generator: Generator[float, None, None]) -> None:
        delay = next(generator, None)
        if delay is not None:
            self.call_later(delay, self._resume, generator)
