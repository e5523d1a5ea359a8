"""Simulated-annealing task allocation.

The paper's concluding remarks call for coupling allocation with path
assignment "so as to set up less stringent constraints for SR
computation".  This allocator takes a step in that direction: it anneals
the task->node placement under an objective that mixes total
communication volume-distance with a *congestion* term — the maximum,
over links, of the volume crossing that link when every message takes
its LSD->MSD route.  Low congestion correlates with low peak utilisation
downstream, so annealed placements tend to widen the range of loads the
scheduled-routing compiler can serve (the ABL-ALLOC bench quantifies it).
"""

from __future__ import annotations

import math
import random
from typing import Mapping

from repro.errors import AllocationError
from repro.mapping.allocation import (
    Allocation,
    communication_cost,
    sequential_allocation,
    validate_allocation,
)
from repro.tfg.graph import TaskFlowGraph
from repro.topology.base import Topology
from repro.topology.routing import links_on_path, lsd_to_msd_route


def placement_congestion(
    tfg: TaskFlowGraph,
    topology: Topology,
    allocation: Mapping[str, int],
) -> float:
    """Maximum per-link byte volume under LSD->MSD routing.

    A cheap compile-time proxy for the peak utilisation the scheduled-
    routing pipeline will face: messages stacked on one link by the
    placement cannot all be unstacked by path assignment when the
    alternatives also collide.
    """
    volume: dict = {}
    for message in tfg.messages:
        src = allocation[message.src]
        dst = allocation[message.dst]
        if src == dst:
            continue
        for link in links_on_path(lsd_to_msd_route(topology, src, dst)):
            volume[link] = volume.get(link, 0.0) + message.size_bytes
    return max(volume.values(), default=0.0)


def annealed_allocation(
    tfg: TaskFlowGraph,
    topology: Topology,
    seed: int = 0,
    iterations: int = 4000,
) -> Allocation:
    """Anneal a one-task-per-node placement.

    Objective: ``communication_cost + 4 * congestion``
    (both terms in byte-hops), minimised by swap/move proposals under a
    geometric cooling schedule that starts at the initial cost.
    Deterministic per ``seed``.
    """
    if tfg.num_tasks > topology.num_nodes:
        raise AllocationError(
            f"{tfg.num_tasks} tasks do not fit on {topology.name}"
        )
    rng = random.Random(seed)
    current = dict(sequential_allocation(tfg, topology))
    task_names = [t.name for t in tfg.tasks]

    def objective(allocation: Mapping[str, int]) -> float:
        return communication_cost(tfg, topology, allocation) + (
            4.0 * placement_congestion(tfg, topology, allocation)
        )

    current_cost = objective(current)
    best = dict(current)
    best_cost = current_cost
    free_nodes = sorted(set(range(topology.num_nodes)) - set(current.values()))

    temperature = max(current_cost, 1.0)
    cooling = (1e-3) ** (1.0 / max(iterations, 1))

    for _ in range(iterations):
        task = rng.choice(task_names)
        old_node = current[task]
        if free_nodes and rng.random() < 0.5:
            # Move to a free node.
            index = rng.randrange(len(free_nodes))
            new_node = free_nodes[index]
            current[task] = new_node
            candidate_cost = objective(current)
            if _accept(candidate_cost - current_cost, temperature, rng):
                free_nodes[index] = old_node
                current_cost = candidate_cost
            else:
                current[task] = old_node
        else:
            # Swap with another task.
            other = rng.choice(task_names)
            if other == task:
                temperature *= cooling
                continue
            current[task], current[other] = current[other], current[task]
            candidate_cost = objective(current)
            if _accept(candidate_cost - current_cost, temperature, rng):
                current_cost = candidate_cost
            else:
                current[task], current[other] = (
                    current[other], current[task],
                )
        if current_cost < best_cost:
            best = dict(current)
            best_cost = current_cost
        temperature *= cooling

    validate_allocation(tfg, topology, best)
    return best


def _accept(delta: float, temperature: float, rng: random.Random) -> bool:
    """Metropolis acceptance rule."""
    if delta <= 0:
        return True
    if temperature <= 0:
        return False
    return rng.random() < math.exp(-delta / temperature)
