"""Path assignments: which minimal path each routed message uses.

The paper encodes an assignment as the ``N_m x N_l`` matrix ``B`` with
``b_ij = 1`` when message ``M_i`` uses link ``L_j``.  Here an assignment
maps message names to concrete node paths (from which ``B`` follows); it
is the object the AssignPaths heuristic mutates and the later compiler
stages consume.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.errors import RoutingError
from repro.topology.base import Link, Topology
from repro.topology.routing import links_on_path, validate_path


class PathAssignment:
    """Message name -> minimal node path, with cached link sets.

    Parameters
    ----------
    topology:
        The interconnect the paths live on.
    endpoints:
        ``message name -> (src node, dst node)`` for every routed message.
    paths:
        Initial path per message; each is validated as a minimal simple
        path between the message's endpoints.
    validated:
        ``tuple(path) -> links`` memo of paths already validated on
        ``topology``; assignments of every compile on one topology object
        share its ``TopologyTables.validated``, copies inherit their
        original's.
    """

    def __init__(
        self,
        topology: Topology,
        endpoints: Mapping[str, tuple[int, int]],
        paths: Mapping[str, Sequence[int]],
        validated: dict[tuple[int, ...], tuple[Link, ...]] | None = None,
    ):
        self.topology = topology
        self.endpoints = dict(endpoints)
        self._validated = {} if validated is None else validated
        missing = sorted(set(self.endpoints) - set(paths))
        if missing:
            raise RoutingError(f"no path provided for messages {missing}")
        self._paths: dict[str, tuple[int, ...]] = {}
        self._links: dict[str, tuple[Link, ...]] = {}
        for name in self.endpoints:
            self.set_path(name, paths[name])

    @property
    def messages(self) -> tuple[str, ...]:
        """Routed message names in a fixed order."""
        return tuple(self.endpoints)

    def path(self, name: str) -> tuple[int, ...]:
        """The node path currently assigned to a message."""
        return self._paths[name]

    def links(self, name: str) -> tuple[Link, ...]:
        """The undirected links of the assigned path."""
        return self._links[name]

    def hops(self, name: str) -> int:
        """Hop count of the assigned path."""
        return len(self._paths[name]) - 1

    def set_path(self, name: str, path: Sequence[int]) -> None:
        """Reassign a message to a (validated) minimal path.

        The endpoints are compared on every call; the simple / adjacent /
        minimal checks run once per distinct path of the shared memo.
        """
        src, dst = self.endpoints[name]
        key = tuple(path)
        links = self._validated.get(key)
        if links is None or key[0] != src or key[-1] != dst:
            validate_path(self.topology, path, src, dst)
            links = self._validated[key] = links_on_path(path)
        self._paths[name] = key
        self._links[name] = links

    def messages_on(self, link: Link) -> tuple[str, ...]:
        """Messages whose assigned path uses ``link``."""
        return tuple(
            name for name in self.endpoints if link in self._links[name]
        )

    def copy(self) -> "PathAssignment":
        """An independent copy (the heuristic snapshots its best state)."""
        return PathAssignment(
            self.topology,
            self.endpoints,
            {name: list(path) for name, path in self._paths.items()},
            validated=self._validated,
        )

    def as_dict(self) -> dict[str, tuple[int, ...]]:
        """Immutable view of the assignment for result objects."""
        return dict(self._paths)

    def __repr__(self) -> str:
        return (
            f"<PathAssignment {len(self.endpoints)} messages on "
            f"{self.topology.name}>"
        )
