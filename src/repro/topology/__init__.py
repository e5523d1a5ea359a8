"""Interconnect topologies for distributed-memory multicomputers.

The paper's evaluation covers 64-node generalized hypercubes (the binary
6-cube and the GHC(4,4,4)) and tori (8x8 and 4x4x4).  This package models
those families plus open meshes:

- :class:`~repro.topology.base.Topology` — common node/link/addressing API,
- :class:`~repro.topology.ghc.GeneralizedHypercube` — GHC(m_1 ... m_r),
  complete graph in every dimension; the binary hypercube is the all-2 case
  (:func:`~repro.topology.hypercube.binary_hypercube`),
- :class:`~repro.topology.torus.Torus` — k-ary n-cube with wraparound,
- :class:`~repro.topology.mesh.Mesh` — open mesh (no wraparound),
- :mod:`~repro.topology.routing` — the deterministic LSD->MSD routing
  function used by wormhole routing, and path utilities,
- :mod:`~repro.topology.paths` — enumeration of the multiple
  equivalent minimal paths that scheduled routing exploits.

Links are **undirected and half-duplex** (paper Section 4.1): at any
instant a link carries at most one message, in one direction.
"""

from repro.topology.analysis import TopologySummary, summarize
from repro.topology.base import Link, Topology, link_between
from repro.topology.ghc import GeneralizedHypercube
from repro.topology.hypercube import binary_hypercube
from repro.topology.mesh import Mesh
from repro.topology.routing import links_on_path, lsd_to_msd_route, validate_path
from repro.topology.paths import enumerate_minimal_paths
from repro.topology.registry import (
    STANDARD_TOPOLOGIES,
    TOPOLOGY_ALIASES,
    make_topology,
    topology_names,
)
from repro.topology.torus import Torus

__all__ = [
    "GeneralizedHypercube",
    "Link",
    "Mesh",
    "STANDARD_TOPOLOGIES",
    "TOPOLOGY_ALIASES",
    "Topology",
    "TopologySummary",
    "Torus",
    "binary_hypercube",
    "enumerate_minimal_paths",
    "link_between",
    "links_on_path",
    "lsd_to_msd_route",
    "make_topology",
    "summarize",
    "topology_names",
    "validate_path",
]
