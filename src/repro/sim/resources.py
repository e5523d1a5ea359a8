"""FCFS resources for the kernel.

:class:`Resource` models anything with finite simultaneous capacity and a
first-come-first-served wait queue — in this library, a network link under
wormhole routing ("its flow-control hardware resolves contention using a
first-come-first-served policy", paper Section 3) or an application
processor executing one task at a time.  Capacity is taken one way,
:meth:`Resource.claim`.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.environment import Environment


class Claim:
    """A claim on a :class:`Resource` (``grant_time`` ``None`` while queued);
    ``on_grant(claim)``, if set, runs from the agenda at the grant instant."""

    __slots__ = ("owner", "on_grant", "request_time", "grant_time")

    def __init__(self, owner: Any,
                 on_grant: Callable[["Claim"], None] | None, request_time: float):
        self.owner = owner
        self.on_grant = on_grant
        self.request_time = request_time
        self.grant_time: float | None = None


class Resource:
    """A capacity-limited resource with an FCFS wait queue."""

    def __init__(self, env: "Environment", capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._holders: list[Claim] = []
        self._queue: deque[Claim] = deque()
        self._failed = False
        # The environment's tracer is fixed: one boolean test per hot call.
        self._tracing = env.tracer.enabled

    @property
    def count(self) -> int:
        """Number of granted, unreleased claims."""
        return len(self._holders)

    @property
    def queue_length(self) -> int:
        """Number of claims waiting to be granted."""
        return len(self._queue)

    @property
    def holders(self) -> tuple[Claim, ...]:
        """Snapshot of the currently granted claims."""
        return tuple(self._holders)

    @property
    def failed(self) -> bool:
        """True while an injected fault holds the resource down."""
        return self._failed

    def fail(self) -> None:
        """Take the resource down (fault injection hook).

        New and queued claims stop being granted until :meth:`restore`.
        Holders at the instant of failure keep their grant — the model is
        detection at the next acquisition attempt (packet boundary), not
        corruption of an in-flight transfer.
        """
        self._failed = True

    def restore(self) -> None:
        """Bring a failed resource back and grant any eligible waiters."""
        self._failed = False
        while self._queue and len(self._holders) < self.capacity:
            self._grant(self._queue.popleft())

    def claim(self, owner: Any = None,
              on_grant: Callable[[Claim], None] | None = None) -> Claim:
        """One unit of capacity, now if free, unqueued and up, else FCFS.  A
        grant schedules ``on_grant`` (may be set on a queued claim) behind
        the entries already due then; with no callback, nothing at all."""
        claim = Claim(owner, on_grant, self.env._now)
        if len(self._holders) < self.capacity and not self._queue and not self._failed:
            self._grant(claim)
        else:
            self._queue.append(claim)
        return claim

    def release(self, claim: Claim) -> None:
        """Release a granted claim and grant the next waiters."""
        try:
            self._holders.remove(claim)
        except ValueError:
            raise SimulationError(
                f"release of a claim not holding {self.name or 'resource'}"
            ) from None
        if self._tracing:
            # One occupancy span per completed hold: grant -> release.
            self.env.tracer.span("link", "occupy", claim.grant_time, self.env.now,
                                 track=self.name or repr(self), owner=claim.owner)
        while self._queue and len(self._holders) < self.capacity and not self._failed:
            self._grant(self._queue.popleft())

    def cancel(self, claim: Claim) -> None:
        """Withdraw a queued (not yet granted) claim."""
        try:
            self._queue.remove(claim)
        except ValueError:
            raise SimulationError("cancel of a claim that is not queued") from None

    def _grant(self, claim: Claim) -> None:
        self._holders.append(claim)
        now = claim.grant_time = self.env._now
        if self._tracing and now > claim.request_time:
            # The FCFS wait the paper's Section 3 argument is about.
            self.env.tracer.span("link", "blocked", claim.request_time, now,
                                 track=self.name or repr(self), owner=claim.owner)
        if claim.on_grant is not None:
            self.env.call_later(0.0, claim.on_grant, claim)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or f"Resource@{id(self):#x}"
        state = " DOWN" if self._failed else ""
        return f"<{label} {self.count}/{self.capacity} queued={self.queue_length}{state}>"
