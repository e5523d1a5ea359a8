"""Generator-based cooperative processes."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.errors import SimulationError
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.environment import Environment


class Process(Event):
    """A process executes a generator, suspending at each yielded event.

    A process is itself an :class:`~repro.sim.events.Event`: it fires with
    the generator's return value when the generator finishes, so processes
    can wait on each other (``yield env.process(child(env))``).

    Failures propagate: when a yielded event fails, the exception is thrown
    into the generator at the yield point; an unhandled exception fails the
    process event, and — if nothing is waiting on the process — aborts the
    simulation rather than passing silently.
    """

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                f"process body must be a generator, got {type(generator).__name__}"
            )
        super().__init__(env)
        self._generator = generator
        # Kick off the process at the current instant, after already-queued
        # same-time events (FIFO determinism).
        Event(env).succeed().add_callback(self._resume)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    # -- driving the generator ------------------------------------------

    def _resume(self, event: Event) -> None:
        self._step(event.value, as_exception=not event.ok)

    def _step(self, value: Any, as_exception: bool) -> None:
        try:
            if as_exception:
                target = self._generator.throw(value)
            else:
                target = self._generator.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Exception as exc:
            self.fail(exc)
            return
        if not isinstance(target, Event):
            problem = f"process yielded a non-event: {target!r}"
        elif target.env is not self.env:
            problem = "process yielded an event from another environment"
        else:
            target.add_callback(self._resume)
            return
        # Thrown back in like any failure: handled, the process carries on
        # from its next yield; unhandled, it fails the process event.
        self._step(SimulationError(problem), as_exception=True)
