"""Standard experimental setup matching the paper's Section 6.

The paper fixes application-processor speeds so that ``tau_m / tau_c = 1``
at B = 64 bytes/us; the *same machine* run at B = 128 bytes/us then has
``tau_m / tau_c = 0.5`` (halved message times, unchanged task times).  All
tasks take the same time.  Twelve input periods are swept between
``tau_c`` and ``5 * tau_c``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.mapping.allocation import (
    Allocation,
    bfs_allocation,
    random_allocation,
    sequential_allocation,
)
from repro.mapping.annealing import annealed_allocation
from repro.tfg.analysis import TFGTiming, speeds_for_ratio
from repro.tfg.dvb import dvb_tfg
from repro.tfg.graph import TaskFlowGraph
from repro.topology.base import Topology
from repro.topology.registry import (
    STANDARD_TOPOLOGIES,
    TOPOLOGY_ALIASES,
    make_topology,
    topology_names,
)

#: The reference bandwidth at which speeds are calibrated (bytes/us).
REFERENCE_BANDWIDTH = 64.0

Allocator = Callable[[TaskFlowGraph, Topology], Allocation]

SeededAllocator = Callable[[TaskFlowGraph, Topology, int], Allocation]

#: Task-placement strategies by wire/CLI name; the unseeded ones ignore
#: the seed.
ALLOCATORS: dict[str, SeededAllocator] = {
    "sequential": lambda tfg, topology, seed: sequential_allocation(
        tfg, topology
    ),
    "bfs": lambda tfg, topology, seed: bfs_allocation(tfg, topology),
    "random": random_allocation,
    "annealed": annealed_allocation,
}


@dataclass(frozen=True)
class ExperimentSetup:
    """A fully pinned experiment: workload, machine, placement."""

    tfg: TaskFlowGraph
    topology: Topology
    timing: TFGTiming
    allocation: dict[str, int]

    @property
    def tau_c(self) -> float:
        return self.timing.tau_c

    def tau_in_for_load(self, load: float) -> float:
        """Input period realizing a normalized load ``tau_c / tau_in``."""
        return self.timing.tau_c / normalized_load(load)


def normalized_load(load: float) -> float:
    """``load`` if it is a normalized load ``tau_c / tau_in`` in (0, 1];
    :class:`ValueError` otherwise (NaN included)."""
    if not 0 < load <= 1:
        raise ValueError(f"normalized load must be in (0, 1], got {load}")
    return load


def standard_setup(
    tfg: TaskFlowGraph,
    topology: Topology,
    bandwidth: float,
    allocator: Allocator = sequential_allocation,
    allocation: Mapping[str, int] | None = None,
) -> ExperimentSetup:
    """Build the paper-standard setup on a topology at a bandwidth.

    Speeds are calibrated at :data:`REFERENCE_BANDWIDTH` so that every task
    takes exactly ``tau_m(B=64)`` time; running the experiment at
    ``bandwidth=128`` then yields the paper's ``tau_m/tau_c = 0.5`` case
    with identical task times.
    """
    speeds = speeds_for_ratio(tfg, REFERENCE_BANDWIDTH, ratio=1.0)
    timing = TFGTiming(tfg, bandwidth, speeds)
    placed = dict(allocation) if allocation is not None else allocator(tfg, topology)
    return ExperimentSetup(
        tfg=tfg,
        topology=topology,
        timing=timing,
        allocation=placed,
    )


@dataclass(frozen=True)
class InstanceSpec:
    """The name of one standard problem instance: DVB on a 64-node machine.

    This is the instance tuple the CLI flags and the serve wire format
    both spell — ``DVB(models)`` placed by ``allocator`` (seeded by
    ``seed``) on ``topology`` at ``bandwidth`` bytes/us.  Construction
    validates every field (raising :class:`ValueError`) and resolves
    topology aliases, so equal instances compare equal; :meth:`build`
    is deterministic, which is what lets the serve front-end compute a
    cache key for an instance its workers rebuild on their side.
    """

    topology: str
    bandwidth: float = REFERENCE_BANDWIDTH
    models: int = 8
    allocator: str = "sequential"
    seed: int = 0

    def __post_init__(self) -> None:
        canonical = TOPOLOGY_ALIASES.get(self.topology, self.topology)
        if canonical not in STANDARD_TOPOLOGIES:
            raise ValueError(
                f"unknown topology {self.topology!r}; expected one of "
                f"{', '.join(topology_names())}"
            )
        object.__setattr__(self, "topology", canonical)
        if not self.bandwidth > 0:
            raise ValueError(f"bandwidth must be > 0, got {self.bandwidth}")
        if not math.isfinite(self.bandwidth):
            raise ValueError(f"bandwidth must be finite, got {self.bandwidth}")
        if self.bandwidth < REFERENCE_BANDWIDTH:
            # Speeds are calibrated at the reference bandwidth, so below it
            # the longest message outlasts the task-time message window.
            raise ValueError(
                f"bandwidth must be >= {REFERENCE_BANDWIDTH:g} (the "
                f"calibration bandwidth), got {self.bandwidth}"
            )
        if self.models < 1:
            raise ValueError(f"models must be >= 1, got {self.models}")
        if self.allocator not in ALLOCATORS:
            raise ValueError(
                f"unknown allocator {self.allocator!r}; expected one of "
                f"{', '.join(ALLOCATORS)}"
            )

    def build(self) -> ExperimentSetup:
        """Materialize the paper-standard setup this spec names."""
        tfg = dvb_tfg(self.models)
        topology = make_topology(self.topology)
        return standard_setup(
            tfg,
            topology,
            self.bandwidth,
            allocation=ALLOCATORS[self.allocator](tfg, topology, self.seed),
        )
