"""Deterministic routing and path utilities.

Wormhole routing in the paper "imposes deterministic path selection via its
routing function" (Section 3); the concrete function used throughout the
evaluation is LSD-to-MSD routing: walk the address digits from the least
significant dimension to the most significant, correcting each digit in
turn (Section 5.1).  :func:`lsd_to_msd_route` implements it for any
:class:`~repro.topology.base.Topology` that defines per-dimension steps.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import RoutingError
from repro.topology.base import Link, Topology, link_between


def lsd_to_msd_route(topology: Topology, src: int, dst: int) -> list[int]:
    """The deterministic LSD->MSD minimal route from ``src`` to ``dst``.

    Digits are corrected dimension 0 first.  Where a dimension offers
    several minimal moves (a half-ring tie on an even torus) the first
    alternative — the positive ring direction — is taken, keeping the
    function single-valued as a routing function must be.

    Returns the node sequence ``[src, ..., dst]`` (length 1 when
    ``src == dst``).
    """
    src_addr = topology.address(src)
    dst_addr = topology.address(dst)
    digits = list(src_addr)
    path = [src]
    for dim in range(topology.num_dimensions):
        walks = topology.dimension_steps(src_addr[dim], dst_addr[dim], dim)
        for digit in walks[0]:
            digits[dim] = digit
            path.append(topology.node_at(digits))
    if path[-1] != dst:  # pragma: no cover - would indicate a topology bug
        raise RoutingError(
            f"LSD->MSD route on {topology.name} ended at {path[-1]}, "
            f"expected {dst}"
        )
    return path


def links_on_path(path: Sequence[int]) -> tuple[Link, ...]:
    """The undirected links traversed by a node sequence."""
    return tuple(link_between(u, v) for u, v in zip(path, path[1:]))


def validate_path(
    topology: Topology,
    path: Sequence[int],
    src: int,
    dst: int,
) -> None:
    """Raise :class:`~repro.errors.RoutingError` unless ``path`` is a valid
    minimal simple route from ``src`` to ``dst``."""
    if not path:
        raise RoutingError("empty path")
    if path[0] != src or path[-1] != dst:
        raise RoutingError(
            f"path endpoints {path[0]}->{path[-1]} do not match {src}->{dst}"
        )
    if len(set(path)) != len(path):
        raise RoutingError(f"path revisits a node: {path}")
    for u, v in zip(path, path[1:]):
        if not topology.are_adjacent(u, v):
            raise RoutingError(
                f"path hop {u}->{v} is not a link of {topology.name}"
            )
    if len(path) - 1 != topology.distance(src, dst):
        raise RoutingError(
            f"path of {len(path) - 1} hops is not minimal for {src}->{dst} "
            f"(distance {topology.distance(src, dst)})"
        )
