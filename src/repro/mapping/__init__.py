"""Task-to-node allocation.

The paper treats allocation as an input ("locations of the sources and
destinations of messages ... are fixed by task allocation") and notes that
coupling it with path assignment is future work.  This package provides
deterministic, seedable allocators and allocation-quality measures so
experiments can pin an allocation and reproduce exactly.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "Allocation": "allocation",
    "annealed_allocation": "annealing",
    "bfs_allocation": "allocation",
    "communication_cost": "allocation",
    "placement_congestion": "annealing",
    "random_allocation": "allocation",
    "sequential_allocation": "allocation",
    "validate_allocation": "allocation",
})
