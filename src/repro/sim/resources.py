"""FCFS resources for the kernel.

:class:`Resource` models anything with finite simultaneous capacity and a
first-come-first-served wait queue — in this library, a network link under
wormhole routing ("its flow-control hardware resolves contention using a
first-come-first-served policy", paper Section 3) or an application
processor executing one task at a time.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any

from repro.errors import SimulationError
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.environment import Environment


class Request(Event):
    """A pending claim on a :class:`Resource`.

    The request event fires when the resource grants the claim.  Use as::

        req = link.request(owner=msg)
        yield req
        ...                      # holding the resource
        link.release(req)
    """

    def __init__(self, resource: "Resource", owner: Any = None):
        super().__init__(resource.env)
        self.resource = resource
        self.owner = owner
        self.request_time = resource.env.now
        self.grant_time: float | None = None


class Resource:
    """A capacity-limited resource with an FCFS wait queue."""

    def __init__(self, env: "Environment", capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._holders: list[Request] = []
        self._queue: deque[Request] = deque()
        self._failed = False
        # Cached tracing guard (the environment's tracer is fixed at
        # construction); keeps the request/grant/release hot path at one
        # boolean test when tracing is off.
        self._tracing = env.tracer.enabled

    @property
    def count(self) -> int:
        """Number of granted, unreleased requests."""
        return len(self._holders)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting to be granted."""
        return len(self._queue)

    @property
    def holders(self) -> tuple[Request, ...]:
        """Snapshot of the currently granted requests."""
        return tuple(self._holders)

    @property
    def failed(self) -> bool:
        """True while an injected fault holds the resource down."""
        return self._failed

    def fail(self) -> None:
        """Take the resource down (fault injection hook).

        New and queued requests stop being granted until :meth:`restore`.
        Holders at the instant of failure keep their grant — the model is
        detection at the next acquisition attempt (packet boundary), not
        corruption of an in-flight transfer; simulators wanting stricter
        semantics interrupt the holder's process themselves.
        """
        self._failed = True

    def restore(self) -> None:
        """Bring a failed resource back and grant any eligible waiters."""
        self._failed = False
        while self._queue and self.count < self.capacity:
            self._grant(self._queue.popleft())

    def request(self, owner: Any = None) -> Request:
        """Claim one unit of capacity; the returned event fires on grant."""
        req = Request(self, owner=owner)
        if self.count < self.capacity and not self._queue and not self._failed:
            self._grant(req)
        else:
            self._queue.append(req)
        return req

    def release(self, request: Request) -> None:
        """Release a previously granted request and grant the next waiter."""
        try:
            self._holders.remove(request)
        except ValueError:
            raise SimulationError(
                f"release of a request not holding {self.name or 'resource'}"
            ) from None
        if self._tracing:
            # One occupancy span per completed hold: grant -> release.
            self.env.tracer.span(
                "link",
                "occupy",
                request.grant_time,
                self.env.now,
                track=self.name or repr(self),
                owner=request.owner,
            )
        while self._queue and self.count < self.capacity and not self._failed:
            self._grant(self._queue.popleft())

    def cancel(self, request: Request) -> None:
        """Withdraw a queued (not yet granted) request."""
        try:
            self._queue.remove(request)
        except ValueError:
            raise SimulationError("cancel of a request that is not queued") from None

    def _grant(self, req: Request) -> None:
        self._holders.append(req)
        req.grant_time = self.env.now
        if self._tracing and req.grant_time > req.request_time:
            # The FCFS wait the paper's Section 3 argument is about.
            self.env.tracer.span(
                "link",
                "blocked",
                req.request_time,
                req.grant_time,
                track=self.name or repr(self),
                owner=req.owner,
            )
        req.succeed(req)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or f"Resource@{id(self):#x}"
        state = " DOWN" if self._failed else ""
        return f"<{label} {self.count}/{self.capacity} queued={self.queue_length}{state}>"
