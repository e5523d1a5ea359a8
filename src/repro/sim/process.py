"""Generator-based cooperative processes."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.errors import SimulationError
from repro.sim.events import Event, Interrupt

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
        self._waiting_on: Event | None = None
        # Kick off the process at the current instant, after already-queued
        # same-time events (FIFO determinism).
        bootstrap = Event(env)
        bootstrap.add_callback(self._resume)
        bootstrap.succeed()

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its yield point."""
        if not self.is_alive:
            raise SimulationError("cannot interrupt a finished process")
        if self._waiting_on is None:
            raise SimulationError("cannot interrupt a process that is not suspended")
        waited, self._waiting_on = self._waiting_on, None
        # Detach from the event we were waiting on so its later firing
        # does not resume us twice.
        if waited.callbacks is not None and self._resume in waited.callbacks:
            waited.callbacks.remove(self._resume)
        self._step(Interrupt(cause), as_exception=True)

    # -- driving the generator ------------------------------------------

    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        if event.ok:
            self._step(event.value, as_exception=False)
        else:
            self._step(event.value, as_exception=True)

    def _step(self, value: Any, as_exception: bool) -> None:
        try:
            if as_exception:
                target = self._generator.throw(value)
            else:
                target = self._generator.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt as exc:
            # An unhandled interrupt fails the process.
            self.fail(exc)
            return
        except Exception as exc:
            self.fail(exc)
            return
        if not isinstance(target, Event):
            problem = f"process yielded a non-event: {target!r}"
        elif target.env is not self.env:
            problem = "process yielded an event from another environment"
        else:
            self._waiting_on = target
            target.add_callback(self._resume)
            return
        # Thrown back in like any failure: handled, the process carries on
        # from its next yield; unhandled, it fails the process event.
        self._step(SimulationError(problem), as_exception=True)
