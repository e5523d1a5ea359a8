"""Driving fault traces into a live discrete-event simulation.

:class:`FaultInjector` is the bridge between the declarative
:class:`~repro.faults.models.FaultTrace` and the kernel's runtime hooks:
every link outage in the trace is one agenda entry that calls
:meth:`~repro.sim.resources.Resource.fail` at the outage start and, for
a transient fault, schedules the entry that calls
:meth:`~repro.sim.resources.Resource.restore` at its end.  Both the
scheduled-routing executor and the wormhole simulators instantiate one
when handed a trace; neither needs to know fault timing — they only
observe ``resource.failed``.

Every state flip is recorded on a :class:`~repro.sim.Monitor`, so a run
result can report exactly when the machine degraded and recovered.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from repro.sim.monitor import Monitor
from repro.topology.base import Link, Topology

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.models import FaultTrace, LinkFault
    from repro.sim.environment import Environment
    from repro.sim.resources import Resource


class FaultInjector:
    """Schedules a trace's link outages onto an environment's resources.

    Parameters
    ----------
    env:
        The simulation environment the outages play out in.
    links:
        ``Link -> Resource`` map of the run (the injector fails/restores
        these in place).
    trace:
        The fault history; node faults are expanded to their incident
        links via ``topology``.
    topology:
        The machine, needed to expand node faults.

    Build it on a fresh environment (``now == 0``), before the run
    schedules anything: fault starts are absolute times, and an outage
    then runs ahead of every other entry due at its instant.
    """

    def __init__(
        self,
        env: "Environment",
        links: Mapping[Link, "Resource"],
        trace: "FaultTrace",
        topology: Topology,
    ):
        self.env = env
        self.links = links
        self.trace = trace
        self.events = Monitor("fault-events")
        self._down_count: dict[Link, int] = {}
        for fault in trace.all_link_faults(topology):
            if fault.link in links:
                env.call_later(fault.start, self._down, fault)

    def _down(self, fault: "LinkFault") -> None:
        link, env = fault.link, self.env
        # Overlapping outages on one link: the link is down while any of
        # them holds (reference count), so a restore of one outage does
        # not resurrect a link another outage still claims.
        self._down_count[link] = self._down_count.get(link, 0) + 1
        self.links[link].fail()
        self.events.record(env.now, ("down", link))
        if env.tracer.enabled:
            env.tracer.instant(
                "fault", "down", env.now, track=str(link),
                permanent=fault.permanent,
            )
        if fault.duration is not None:  # transient
            env.call_later(fault.duration, self._up, link)

    def _up(self, link: Link) -> None:
        self._down_count[link] -= 1
        if self._down_count[link] == 0:
            self.links[link].restore()
            self.events.record(self.env.now, ("up", link))
            if self.env.tracer.enabled:
                self.env.tracer.instant(
                    "fault", "up", self.env.now, track=str(link),
                )

    def failed_links(self) -> frozenset[Link]:
        """Links currently down (live view of the injected state)."""
        return frozenset(
            link for link, resource in self.links.items() if resource.failed
        )
