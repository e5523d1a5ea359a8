"""Enumeration of the minimal paths between two nodes.

Scheduled routing "makes use of the multiple equivalent paths between
non-adjacent nodes" (paper abstract): the path-assignment heuristic needs,
for every multi-hop message, the pool of alternative minimal paths.  A
minimal path is built by choosing, per dimension, one minimal digit walk
(GHC: the one-hop correction; torus: one of at most two ring directions)
and then interleaving the per-dimension moves in any order.

The number of alternatives grows factorially with the hop count (h! in a
GHC), so enumeration takes a ``max_paths`` cap; the heuristic's inner loop
works with the capped pool and the random-restart outer loop compensates.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

from repro.errors import RoutingError
from repro.topology.base import Topology


def _move_lists(topology: Topology, src: int, dst: int) -> list[list[list[int]]]:
    """Per-dimension alternatives of digit walks from ``src`` to ``dst``."""
    src_addr = topology.address(src)
    dst_addr = topology.address(dst)
    alternatives: list[list[list[int]]] = []
    for dim in range(topology.num_dimensions):
        walks = topology.dimension_steps(src_addr[dim], dst_addr[dim], dim)
        alternatives.append(walks)
    return alternatives


def _interleavings(
    walks: list[list[int]],
    topology: Topology,
    src: int,
) -> Iterator[list[int]]:
    """All node paths realizable by interleaving the per-dimension walks.

    ``walks[dim]`` is the (possibly empty) ordered digit sequence dimension
    ``dim`` must pass through.  Moves within a dimension keep their order;
    moves across dimensions interleave freely.
    """
    digits = list(topology.address(src))
    positions = [0] * len(walks)
    path = [src]

    def recurse() -> Iterator[list[int]]:
        done = True
        for dim, walk in enumerate(walks):
            if positions[dim] < len(walk):
                done = False
                saved = digits[dim]
                digits[dim] = walk[positions[dim]]
                positions[dim] += 1
                path.append(topology.node_at(digits))
                yield from recurse()
                path.pop()
                positions[dim] -= 1
                digits[dim] = saved
        if done:
            yield list(path)

    yield from recurse()


def iter_minimal_paths(topology: Topology, src: int, dst: int) -> Iterator[list[int]]:
    """Lazily yield every minimal path ``src -> dst`` in deterministic order."""
    topology._check_node(src)
    topology._check_node(dst)
    if src == dst:
        yield [src]
        return
    for combo in product(*_move_lists(topology, src, dst)):
        yield from _interleavings(list(combo), topology, src)


def enumerate_minimal_paths(
    topology: Topology,
    src: int,
    dst: int,
    max_paths: int | None = None,
) -> list[list[int]]:
    """All minimal paths ``src -> dst``, capped at ``max_paths``.

    The order is deterministic (dimension-0-first DFS), so a capped pool is
    stable across runs.
    """
    if max_paths is not None and max_paths < 1:
        raise RoutingError(f"max_paths must be >= 1, got {max_paths}")
    result: list[list[int]] = []
    for path in iter_minimal_paths(topology, src, dst):
        result.append(path)
        if max_paths is not None and len(result) >= max_paths:
            break
    return result
