"""The AssignPaths heuristic (paper Fig. 4).

Finding the optimal path assignment would require solving the downstream
allocation and scheduling problems for each of more than ``2^z`` candidate
assignments, so the paper minimises peak utilisation ``U`` heuristically:

1. start from a random assignment of minimal paths;
2. *iterative improvement*: locate the peak (a link, or a (link, interval)
   hot-spot), consider every alternative path of every multi-hop message
   crossing it, and apply the reroute with the largest peak reduction;
   when no reroute reduces the peak, apply one that *repositions* it (same
   value, different link/spot) so the search moves through the
   link-interval space;
3. when the inner loop stalls, record the best assignment seen and restart
   from a fresh random assignment to escape local minima; terminate when a
   restart yields no improvement.

The LSD->MSD assignment (every message on its deterministic wormhole
route) is the comparison baseline of the paper's Figs. 5 and 6:
utilisation under LSD->MSD is uneven, and AssignPaths is "at least as
low ... for all load values".
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping

from repro.core.assignment import PathAssignment
from repro.core.timebounds import TimeBoundSet
from repro.core.utilization import (
    CandidateFrame,
    PeakWitness,
    UtilizationReport,
    UtilizationState,
    utilization_report,
)
from repro.topology.base import Link, Topology
from repro.topology.routing import lsd_to_msd_route
from repro.units import EPS

#: Safety cap on iterative-improvement steps per descent.
MAX_DESCENT_STEPS = 200

#: Cap on same-value peak-repositioning moves per descent (Fig. 4
#: repositions unboundedly; a cap guarantees termination).
MAX_REPOSITIONS = 25


@dataclass(frozen=True)
class AssignPathsResult:
    """Outcome of the heuristic: the best assignment and its utilisation."""

    assignment: PathAssignment
    report: UtilizationReport
    inner_iterations: int
    restarts: int


def lsd_assignment(
    topology: Topology,
    endpoints: Mapping[str, tuple[int, int]],
) -> PathAssignment:
    """Every message on its deterministic LSD->MSD route (the baseline)."""
    paths = {
        name: lsd_to_msd_route(topology, src, dst)
        for name, (src, dst) in endpoints.items()
    }
    return PathAssignment(topology, endpoints, paths)


def assign_paths(
    bounds: TimeBoundSet,
    topology: Topology,
    endpoints: Mapping[str, tuple[int, int]],
    seed: int = 0,
    max_paths: int = 48,
    max_restarts: int = 4,
    frame: CandidateFrame | None = None,
) -> AssignPathsResult:
    """Minimise peak utilisation ``U`` over path assignments.

    Parameters
    ----------
    bounds:
        Message time bounds at the target input period (they fix each
        message's activity profile, which is path-independent).
    topology, endpoints:
        The network and each routed message's (source node, destination
        node).
    seed:
        Seeds the random initial assignments and restarts; runs are
        reproducible per seed.
    max_paths:
        Cap on the alternative-path pool per message (the pool is the
        deterministic prefix of the full enumeration).
    max_restarts:
        Random restarts after the first descent (the Fig. 4 escape from
        local minima).
    frame:
        The compile's :class:`~repro.core.utilization.CandidateFrame`
        for these ``bounds``, ``endpoints`` and ``max_paths`` — the
        compiler pipeline builds one per compile and hands it to every
        attempt (delta compilation keys artifacts on its pools).
        ``None`` builds one here.
    """
    rng = random.Random(seed)
    if frame is None:
        frame = CandidateFrame(bounds, topology, endpoints, max_paths)
    pools, validated = frame.pools, frame.validated

    def random_assignment() -> PathAssignment:
        return PathAssignment(
            topology,
            endpoints,
            {name: rng.choice(pool) for name, pool in pools.items()},
            validated=validated,
        )

    total_inner = 0
    best: PathAssignment | None = None
    best_peak = float("inf")
    restarts_used = 0

    for restart in range(max_restarts + 1):
        state = UtilizationState(bounds, random_assignment(), frame)
        total_inner += _descend(state, bounds)
        peak = state.peak().value
        if peak < best_peak - EPS:
            best = state.assignment.copy()
            best_peak = peak
        elif restart > 0:
            # A restart that finds nothing better: stop searching.
            restarts_used = restart
            break
        restarts_used = restart

    assert best is not None
    return AssignPathsResult(
        assignment=best,
        report=utilization_report(bounds, best, frame),
        inner_iterations=total_inner,
        restarts=restarts_used,
    )


def _descend(state: UtilizationState, bounds: TimeBoundSet) -> int:
    """One iterative-improvement descent; returns iterations performed."""
    repositions_left = MAX_REPOSITIONS
    iterations = 0
    seen_positions: set[tuple[str, Link, int]] = set()
    for iterations in range(1, MAX_DESCENT_STEPS + 1):
        witness = state.peak()
        seen_positions.add(witness.position())
        candidates = _reroutable_messages(state, bounds, witness)
        best_move: tuple[str, tuple[int, ...]] | None = None
        best_value = witness.value
        reposition_move: tuple[str, tuple[int, ...]] | None = None
        for name in candidates:
            for path, outcome in state.evaluate_pool(name):
                if outcome.value < best_value - EPS:
                    best_value = outcome.value
                    best_move = (name, path)
                elif (
                    reposition_move is None
                    and abs(outcome.value - witness.value) <= EPS
                    and outcome.position() not in seen_positions
                ):
                    reposition_move = (name, path)
        if best_move is not None:
            state.reroute(*best_move)
        elif reposition_move is not None and repositions_left > 0:
            repositions_left -= 1
            state.reroute(*reposition_move)
        else:
            break
    return iterations


def _reroutable_messages(
    state: UtilizationState,
    bounds: TimeBoundSet,
    witness: PeakWitness,
) -> list[str]:
    """Multi-hop messages crossing the peak link (and, for a hot-spot,
    active in the peak interval) — the Fig. 4 reroute candidates."""
    names: list[str] = []
    for name in state.assignment.messages_on(witness.link):
        if state.assignment.hops(name) < 2:
            continue  # single-hop messages have a unique minimal path
        if witness.interval >= 0:
            i = bounds.index[name]
            if not bounds.activity[i, witness.interval]:
                continue
        names.append(name)
    return names
