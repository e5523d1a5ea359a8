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

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "GeneralizedHypercube": "ghc",
    "Link": "base",
    "Mesh": "mesh",
    "STANDARD_TOPOLOGIES": "registry",
    "TOPOLOGY_ALIASES": "registry",
    "Topology": "base",
    "TopologySummary": "analysis",
    "Torus": "torus",
    "binary_hypercube": "hypercube",
    "enumerate_minimal_paths": "paths",
    "link_between": "base",
    "links_on_path": "routing",
    "lsd_to_msd_route": "routing",
    "make_topology": "registry",
    "summarize": "analysis",
    "topology_names": "registry",
    "validate_path": "routing",
})
