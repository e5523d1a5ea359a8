"""Adaptive cut-through routing — the paper's second Section 3 argument.

The paper notes that output inconsistency is not an artifact of
deterministic routing: "Even when path selection is sensitive to the
network load and makes use of the multiple equivalent paths in the
network, as in adaptive cut-through routing [Nga89], OI may result" — an
adaptive header that dodges one busy link commits itself to a path whose
later links are busy, and the FCFS delays still vary across invocations.

:class:`AdaptiveWormholeSimulator` implements minimal adaptive routing on
top of the wormhole machinery: at every hop the header inspects the
profitable (distance-reducing) links and takes a free one when available,
otherwise queues FCFS on the deterministic first choice.  Everything else
— hold-while-blocked, half-duplex links, deadlock recovery — is inherited.

Under fault injection the adaptivity doubles as fault tolerance: failed
links are never chosen while a live profitable link exists, and when a
failure kills *every* profitable link the header misroutes one hop
through the live neighbor closest to the destination (bounded by a hop
budget so a shattered network cannot walk forever).  This is the
degraded-mode baseline the survivability benchmarks compare scheduled
routing's repair engine against.
"""

from __future__ import annotations

from typing import AbstractSet, Iterator, Mapping

from repro.sim import Resource
from repro.topology.base import Link, Topology, link_between
from repro.wormhole.simulator import WormholeSimulator


def minimal_next_hops(topology: Topology, current: int, dst: int) -> list[int]:
    """Neighbors of ``current`` that lie on some minimal path to ``dst``,
    in ascending node order (the deterministic fallback is the first)."""
    remaining = topology.distance(current, dst)
    return sorted(
        n for n in topology.neighbors(current)
        if topology.distance(n, dst) == remaining - 1
    )


class AdaptiveWormholeSimulator(WormholeSimulator):
    """Wormhole simulation with per-hop adaptive minimal path selection.

    The route is chosen *during* flight: each hop takes the first idle
    profitable link (idle = no holder and empty queue), falling back to
    the lowest-numbered profitable neighbor when all are busy.  Chosen
    hops are committed — the header never backtracks — which is exactly
    the commitment the paper's argument turns into OI.
    """

    #: Misrouting safety valve: a flight may take at most this many hops
    #: (as a multiple of the healthy route length) before it stops
    #: dodging failures and blocks on a minimal link instead.
    MISROUTE_HOP_FACTOR = 4

    def _plan_hop(
        self,
        links: Mapping[Link, Resource],
        current: int,
        dst: int,
        taken: AbstractSet[Link] = frozenset(),
        visited: AbstractSet[int] = frozenset(),
        allow_misroute: bool = True,
    ) -> int:
        """The next node the adaptive header advances toward.

        ``taken`` holds the links this flight already acquired (or has
        pending) this attempt: a wormhole flight must never re-request
        one — it would block on itself forever, a deadlock no wait-for
        cycle through *other* flights ever reveals.  ``visited`` holds
        the nodes the walk has passed: revisiting one means the header
        circled around a failure and is burning hop budget on a loop, so
        visited nodes are avoided while any fresh choice exists.
        """
        candidates = minimal_next_hops(self.topology, current, dst)
        live = []
        for neighbor in candidates:
            link = link_between(current, neighbor)
            resource = links[link]
            if resource.failed or link in taken or neighbor in visited:
                continue
            live.append(neighbor)
            if resource.count < resource.capacity and resource.queue_length == 0:
                return neighbor
        if live:
            return live[0]
        if allow_misroute:
            # Every profitable link is down, held, or loops back:
            # misroute one hop through the live unvisited neighbor
            # closest to the destination (lowest id on ties).
            detour = [
                n for n in self.topology.neighbors(current)
                if not links[link_between(current, n)].failed
                and link_between(current, n) not in taken
                and n not in visited
            ]
            if detour:
                chosen = min(
                    detour, key=lambda n: (self.topology.distance(n, dst), n)
                )
                env = links[link_between(current, chosen)].env
                if env.tracer.enabled:
                    env.tracer.instant(
                        "flight",
                        "misroute",
                        env.now,
                        track=str(link_between(current, chosen)),
                        at_node=current,
                        toward=chosen,
                        dst=dst,
                    )
                return chosen
        # Self-avoidance exhausted (or budget spent): block on the first
        # minimal link not already held and wait for a restore/abort;
        # with every escape held, the deterministic choice at least makes
        # the stall visible to the recovery machinery.
        for neighbor in candidates:
            if link_between(current, neighbor) not in taken:
                return neighbor
        return candidates[0]

    def _flight_links(
        self, links: Mapping[Link, Resource], src_node: int, dst_node: int
    ) -> Iterator[Link]:
        """The hop-by-hop walk: each ``next`` plans the next hop from the
        link state at that instant, within a hop budget of
        :attr:`MISROUTE_HOP_FACTOR` times the healthy route length."""
        budget = self.MISROUTE_HOP_FACTOR * max(
            self.topology.distance(src_node, dst_node), 1
        )
        taken: set[Link] = set()
        visited = {src_node}
        current, hops = src_node, 0

        def hop() -> Link | None:
            nonlocal current, hops
            if current == dst_node:
                return None
            neighbor = self._plan_hop(
                links, current, dst_node, taken=taken, visited=visited,
                allow_misroute=hops < budget,
            )
            link = link_between(current, neighbor)
            taken.add(link)
            visited.add(neighbor)
            current, hops = neighbor, hops + 1
            return link

        return iter(hop, None)
