"""Layer 3: static wormhole-routing analysis (deadlock + OI prediction).

Two compile-time checks over the deterministic routing function, no
simulation required:

- **Channel-dependency-graph cycle detection** (Dally & Seitz 1987): a
  wormhole message holds the channels of its route simultaneously, so a
  cycle among directed channels under the routing function admits a
  deadlock configuration.  LSD-to-MSD (dimension-ordered) routing is
  provably acyclic on meshes, hypercubes and GHCs; on tori the wrap
  links close rings and the analysis produces a concrete cycle witness.
- **Output-inconsistency prediction**: the paper Section 3 conditions
  evaluated over the contention-free baseline timetable, reusing
  :func:`repro.wormhole.analysis.predict_oi_risks`, translated into the
  diagnoser's finding vocabulary.  Validated against
  ``wormhole.simulator`` on the paper's claim witness in the test
  suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from repro.tfg.analysis import TFGTiming
from repro.topology.base import Topology
from repro.topology.routing import lsd_to_msd_route
from repro.wormhole.analysis import OiRisk, predict_oi_risks

#: A directed channel ``(u, v)`` — the half of link ``{u, v}`` that
#: carries flits from ``u`` to ``v``.
Channel = tuple[int, int]


@dataclass(frozen=True)
class WrFinding:
    """One static wormhole hazard (deadlock cycle or OI risk)."""

    kind: str  # "cdg-cycle" | "oi-risk"
    detail: str
    channels: tuple[Channel, ...] = ()
    messages: tuple[str, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "detail": self.detail,
            "channels": [list(c) for c in self.channels],
            "messages": list(self.messages),
        }


@dataclass(frozen=True)
class WrReport:
    """Static wormhole analysis of one instance.

    ``deadlock_free`` refers to the analyzed route set: ``True`` means
    the channel-dependency graph is acyclic (no deadlock possible among
    these routes), ``False`` means a cycle witness exists.
    """

    findings: tuple[WrFinding, ...]
    routes_analyzed: int
    oi_risks: tuple[OiRisk, ...]

    @property
    def deadlock_free(self) -> bool:
        return not any(f.kind == "cdg-cycle" for f in self.findings)

    @property
    def oi_safe(self) -> bool:
        """No predicted cross-invocation collision (first-order)."""
        return not self.oi_risks

    def to_dict(self) -> dict[str, Any]:
        return {
            "deadlock_free": self.deadlock_free,
            "oi_safe": self.oi_safe,
            "routes_analyzed": self.routes_analyzed,
            "findings": [f.to_dict() for f in self.findings],
        }


def channel_dependency_graph(
    routes: Iterable[Sequence[int]],
) -> dict[Channel, frozenset[Channel]]:
    """Directed-channel dependencies induced by a set of routes.

    Node set: every directed channel some route uses.  Edge
    ``c1 -> c2``: some route acquires ``c2`` while holding ``c1``
    (consecutive hops).  A cycle means the routing function admits a
    circular wait.
    """
    edges: dict[Channel, set[Channel]] = {}
    for route in routes:
        hops = [
            (route[i], route[i + 1]) for i in range(len(route) - 1)
        ]
        for channel in hops:
            edges.setdefault(channel, set())
        for held, wanted in zip(hops, hops[1:]):
            edges[held].add(wanted)
    return {c: frozenset(nxt) for c, nxt in edges.items()}


def find_dependency_cycle(
    graph: Mapping[Channel, frozenset[Channel]],
) -> tuple[Channel, ...] | None:
    """A cycle in the channel-dependency graph, or ``None`` if acyclic.

    Iterative three-colour DFS; returns the channels along one cycle in
    dependency order.
    """
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {c: WHITE for c in graph}
    parent: dict[Channel, Channel | None] = {}
    for root in sorted(graph):
        if colour[root] != WHITE:
            continue
        stack: list[tuple[Channel, Iterable[Channel]]] = [
            (root, iter(sorted(graph[root])))
        ]
        colour[root] = GREY
        parent[root] = None
        while stack:
            node, children = stack[-1]
            advanced = False
            for child in children:
                if colour.get(child, BLACK) == WHITE:
                    colour[child] = GREY
                    parent[child] = node
                    stack.append((child, iter(sorted(graph[child]))))
                    advanced = True
                    break
                if colour.get(child) == GREY:
                    # Back edge: unwind the grey chain into a cycle.
                    cycle = [child]
                    walk: Channel | None = node
                    while walk is not None and walk != child:
                        cycle.append(walk)
                        walk = parent[walk]
                    cycle.reverse()
                    return tuple(cycle)
            if not advanced:
                colour[node] = BLACK
                stack.pop()
        parent.clear()
    return None


def analyze_wormhole(
    timing: TFGTiming,
    topology: Topology,
    allocation: Mapping[str, int],
    tau_in: float,
    all_pairs: bool = False,
) -> WrReport:
    """Static WR hazards for one instance under LSD->MSD routing.

    With ``all_pairs=False`` (default) the dependency graph covers the
    instance's actual message routes — "can *these* messages deadlock".
    With ``all_pairs=True`` it covers every ordered node pair — a
    property of the routing function itself on this topology.
    """
    if all_pairs:
        pairs = [
            (u, v)
            for u in range(topology.num_nodes)
            for v in range(topology.num_nodes)
            if u != v
        ]
    else:
        pairs = []
        for message in timing.tfg.messages:
            src, dst = allocation[message.src], allocation[message.dst]
            if src != dst:
                pairs.append((src, dst))
    routes = [lsd_to_msd_route(topology, src, dst) for src, dst in pairs]
    graph = channel_dependency_graph(routes)
    findings: list[WrFinding] = []
    cycle = find_dependency_cycle(graph)
    if cycle is not None:
        path = " -> ".join(f"{u}->{v}" for u, v in cycle)
        findings.append(
            WrFinding(
                kind="cdg-cycle",
                detail=(
                    f"channel dependency cycle of length {len(cycle)}: "
                    f"{path} (deadlock possible under wormhole routing)"
                ),
                channels=cycle,
            )
        )
    risks = tuple(predict_oi_risks(timing, topology, allocation, tau_in))
    for risk in risks:
        findings.append(
            WrFinding(
                kind="oi-risk",
                detail=(
                    f"invocation j+1 of {risk.blocked!r} becomes available "
                    f"at t={risk.available_at:g} while {risk.holder!r} "
                    f"holds link {risk.link} "
                    f"[{risk.busy_from:g}, {risk.busy_until:g}]"
                ),
                channels=(risk.link,),
                messages=(risk.holder, risk.blocked),
            )
        )
    return WrReport(
        findings=tuple(findings),
        routes_analyzed=len(routes),
        oi_risks=risks,
    )
