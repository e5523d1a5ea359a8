"""Common topology machinery: nodes, links, mixed-radix addressing.

Nodes are integers ``0 .. N-1``.  A node's *address* is its mixed-radix
digit vector over the topology's per-dimension radices, least-significant
digit (LSD) first — dimension 0 is the LSD, matching the paper's
"LSD-to-MSD" routing terminology.

Links are undirected: :data:`Link` is a sorted ``(u, v)`` node pair, so a
link is the same object key regardless of traversal direction (half-duplex
channels, paper Section 4.1).
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.errors import TopologyError

Link = tuple[int, int]
"""An undirected link, canonically ordered ``(min(u, v), max(u, v))``."""


def link_between(u: int, v: int) -> Link:
    """The canonical :data:`Link` joining two adjacent nodes."""
    if u == v:
        raise TopologyError(f"no self-links: node {u}")
    return (u, v) if u < v else (v, u)


class Topology:
    """Base class for all interconnects.

    Subclasses define :meth:`neighbors`; everything else (link set,
    adjacency checks, addressing, distance) is derived here.  Subclasses
    with richer structure override :meth:`distance` and provide the
    path-enumeration hooks used by :mod:`repro.topology.paths`.

    Parameters
    ----------
    radices:
        Per-dimension sizes, LSD first.  The node count is their product.
    name:
        Human-readable label used in reports.
    """

    def __init__(self, radices: Sequence[int], name: str):
        radices = tuple(int(r) for r in radices)
        if not radices:
            raise TopologyError("topology needs at least one dimension")
        if any(r < 2 for r in radices):
            raise TopologyError(f"every radix must be >= 2, got {radices}")
        self.radices = radices
        self.name = name
        self.num_dimensions = len(radices)
        num_nodes = 1
        for r in radices:
            num_nodes *= r
        self.num_nodes = num_nodes
        self._links: tuple[Link, ...] | None = None
        #: AssignPaths' facts about this object alone (its link index,
        #: candidate pools and validated paths; see
        #: ``repro.core.utilization.TopologyTables``): built by the first
        #: compile on it, shared by every later one.  Per object, so a
        #: residual topology never sees its base's.
        self.candidate_tables: Any = None

    # -- addressing ------------------------------------------------------

    def address(self, node: int) -> tuple[int, ...]:
        """Mixed-radix digits of ``node``, LSD first."""
        self._check_node(node)
        digits = []
        for r in self.radices:
            digits.append(node % r)
            node //= r
        return tuple(digits)

    def node_at(self, address: Sequence[int]) -> int:
        """Node id for a digit vector (inverse of :meth:`address`)."""
        if len(address) != self.num_dimensions:
            raise TopologyError(
                f"address {tuple(address)} has {len(address)} digits, "
                f"expected {self.num_dimensions}"
            )
        node = 0
        weight = 1
        for digit, radix in zip(address, self.radices):
            if not 0 <= digit < radix:
                raise TopologyError(
                    f"digit {digit} out of range for radix {radix} "
                    f"in address {tuple(address)}"
                )
            node += digit * weight
            weight *= radix
        return node

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise TopologyError(
                f"node {node} out of range for {self.name} "
                f"({self.num_nodes} nodes)"
            )

    # -- structure ---------------------------------------------------------

    def neighbors(self, node: int) -> tuple[int, ...]:
        """Nodes adjacent to ``node``."""
        raise NotImplementedError

    def degree(self, node: int) -> int:
        """Number of links at ``node``."""
        return len(self.neighbors(node))

    @property
    def links(self) -> tuple[Link, ...]:
        """All undirected links, canonically ordered, sorted."""
        if self._links is None:
            found: set[Link] = set()
            for u in range(self.num_nodes):
                for v in self.neighbors(u):
                    found.add(link_between(u, v))
            self._links = tuple(sorted(found))
        return self._links

    @property
    def num_links(self) -> int:
        """Total undirected link count."""
        return len(self.links)

    def are_adjacent(self, u: int, v: int) -> bool:
        """True when ``u`` and ``v`` share a link."""
        self._check_node(u)
        self._check_node(v)
        return v in self.neighbors(u)

    def distance(self, u: int, v: int) -> int:
        """Minimal hop count between two nodes.

        The base implementation is a BFS; regular subclasses override it
        with closed forms.
        """
        self._check_node(u)
        self._check_node(v)
        if u == v:
            return 0
        frontier = [u]
        seen = {u}
        hops = 0
        while frontier:
            hops += 1
            nxt: list[int] = []
            for w in frontier:
                for n in self.neighbors(w):
                    if n == v:
                        return hops
                    if n not in seen:
                        seen.add(n)
                        nxt.append(n)
            frontier = nxt
        raise TopologyError(f"{self.name} is disconnected: no path {u}->{v}")

    def minimal_path_pool(
        self, src: int, dst: int, max_paths: int | None = None
    ) -> list[list[int]]:
        """The pool of minimal ``src -> dst`` paths candidates draw from.

        The default delegates to the mixed-radix enumeration of
        :func:`repro.topology.paths.enumerate_minimal_paths`.  Subclasses
        whose link set is *not* the full product structure — notably the
        residual topologies of :mod:`repro.faults` — override this so
        path assignment and schedule repair only ever see live links.
        """
        from repro.topology.paths import enumerate_minimal_paths

        return enumerate_minimal_paths(self, src, dst, max_paths)

    # -- per-dimension step hooks used by routing/path enumeration ---------

    def dimension_steps(self, src_digit: int, dst_digit: int, dim: int) -> list[list[int]]:
        """Digit sequences (exclusive of ``src_digit``) realising the move
        ``src_digit -> dst_digit`` along ``dim`` by single hops.

        Returns a list of alternatives, each a list of intermediate+final
        digits.  A GHC corrects a digit in one hop (single alternative of
        length one); a torus walks unit steps and may have two minimal
        directions.  Dimensions already equal return ``[[]]``.
        """
        raise NotImplementedError

    def __getstate__(self) -> dict[str, Any]:
        # The tables are a memo of this object: a pickled or copied
        # topology builds its own.
        return {**self.__dict__, "candidate_tables": None}

    def __repr__(self) -> str:
        return f"<{self.name}: {self.num_nodes} nodes, {self.num_links} links>"

    def __eq__(self, other: object) -> bool:
        return (
            type(self) is type(other)
            and self.radices == other.radices  # type: ignore[union-attr]
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.radices))
