"""The registry of standard 64-node machines.

The paper's evaluation (and every CLI/service entry point in this repo)
works over four canonical 64-node interconnects.  This module gives
them stable wire names so that the CLI and the serve farm's HTTP
requests resolve ``"hypercube6"`` (or a paper-style alias like
``"6cube"``) to the same machine without importing each other.

A process builds each machine once: :func:`make_topology` hands every
caller the same object, so the candidate tables the first compile on it
derives (``repro.core.utilization.TopologyTables``) serve every later
compile in the process -- each serve request, each matrix cell.
"""

from __future__ import annotations

from typing import Callable

from repro.topology.base import Topology
from repro.topology.ghc import GeneralizedHypercube
from repro.topology.hypercube import binary_hypercube
from repro.topology.torus import Torus

#: Canonical machine name -> factory.
STANDARD_TOPOLOGIES: dict[str, Callable[[], Topology]] = {
    "hypercube6": lambda: binary_hypercube(6),
    "ghc444": lambda: GeneralizedHypercube((4, 4, 4)),
    "torus8x8": lambda: Torus((8, 8)),
    "torus4x4x4": lambda: Torus((4, 4, 4)),
}

#: Paper-style shorthand accepted anywhere a topology name is.
TOPOLOGY_ALIASES: dict[str, str] = {
    "6cube": "hypercube6",
    "cube6": "hypercube6",
    "8x8torus": "torus8x8",
    "4x4x4torus": "torus4x4x4",
}


#: Canonical name -> the one machine this process built under it: at
#: most one object per :data:`STANDARD_TOPOLOGIES` entry.
_MACHINES: dict[str, Topology] = {}


def topology_names() -> list[str]:
    """Every accepted name: canonical names plus aliases, sorted."""
    return sorted(STANDARD_TOPOLOGIES) + sorted(TOPOLOGY_ALIASES)


def make_topology(name: str) -> Topology:
    """Resolve a topology name (canonical or alias) to this process's
    machine of that name, built by the first call for it.

    An alias and its canonical name return the same object, so every
    compile in the process shares its candidate tables.  Callers must
    not mutate it; a pickled copy arrives without the tables
    (``Topology.__getstate__``).

    Raises :class:`KeyError` with the accepted names for unknown input —
    callers validating untrusted wire payloads turn that into a 400.
    """
    canonical = TOPOLOGY_ALIASES.get(name, name)
    machine = _MACHINES.get(canonical)
    if machine is None:
        try:
            factory = STANDARD_TOPOLOGIES[canonical]
        except KeyError:
            raise KeyError(
                f"unknown topology {name!r}; expected one of "
                f"{', '.join(topology_names())}"
            ) from None
        # Two threads may both build it; both get the first one stored.
        machine = _MACHINES.setdefault(canonical, factory())
    return machine
