"""Structural analysis of interconnect topologies.

Quantities a designer reads off a candidate machine before committing to
it: diameter, average distance, bisection width, and per-node capacity.
The design-sweep example and the static diagnoser's cut bounds
(:mod:`repro.diagnose.instance`) build on these.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.topology.base import Link, Topology


@dataclass(frozen=True)
class TopologySummary:
    """Headline structural figures of one interconnect."""

    name: str
    num_nodes: int
    num_links: int
    degree_min: int
    degree_max: int
    diameter: int
    average_distance: float
    bisection_width: int


def diameter(topology: Topology) -> int:
    """Maximum over node pairs of the minimal hop count."""
    return max(
        topology.distance(0, v) for v in range(topology.num_nodes)
    ) if _is_vertex_transitive(topology) else max(
        topology.distance(u, v)
        for u in range(topology.num_nodes)
        for v in range(topology.num_nodes)
    )


def average_distance(topology: Topology) -> float:
    """Mean minimal distance over ordered distinct node pairs."""
    n = topology.num_nodes
    if n < 2:
        return 0.0
    if _is_vertex_transitive(topology):
        total = sum(topology.distance(0, v) for v in range(n))
        return total / (n - 1)
    total = sum(
        topology.distance(u, v)
        for u in range(n)
        for v in range(n)
        if u != v
    )
    return total / (n * (n - 1))


def canonical_bisection(topology: Topology) -> tuple[frozenset[int], tuple[Link, ...]]:
    """The canonical half-split: (upper-side node set, crossing links).

    The split fixes the most significant address digit below/at-or-above
    half its radix — the textbook bisection for GHCs, tori and meshes
    (exact when the top radix is even; a floor split otherwise).  The
    crossing-link set is what the static diagnoser's cut-capacity bound
    consumes; :func:`bisection_width` is its cardinality.
    """
    top_radix = topology.radices[-1]
    threshold = top_radix // 2
    upper = frozenset(
        node
        for node in range(topology.num_nodes)
        if topology.address(node)[-1] >= threshold
    )
    crossing = tuple(
        sorted(
            (u, v)
            for u in range(topology.num_nodes)
            for v in topology.neighbors(u)
            if u < v and ((u in upper) != (v in upper))
        )
    )
    return upper, crossing


def bisection_width(topology: Topology) -> int:
    """Links crossing the canonical half-split of the node set."""
    _, crossing = canonical_bisection(topology)
    return len(crossing)


def summarize(topology: Topology) -> TopologySummary:
    """Compute the full structural summary."""
    degrees = [topology.degree(n) for n in range(topology.num_nodes)]
    return TopologySummary(
        name=topology.name,
        num_nodes=topology.num_nodes,
        num_links=topology.num_links,
        degree_min=min(degrees),
        degree_max=max(degrees),
        diameter=diameter(topology),
        average_distance=average_distance(topology),
        bisection_width=bisection_width(topology),
    )


def _is_vertex_transitive(topology: Topology) -> bool:
    """GHCs and tori look the same from every node; meshes do not.

    Used only to shortcut all-pairs scans; correctness does not depend on
    it (the conservative path scans all pairs).
    """
    from repro.topology.ghc import GeneralizedHypercube
    from repro.topology.torus import Torus

    return isinstance(topology, (GeneralizedHypercube, Torus))
