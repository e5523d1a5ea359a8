"""Interval scheduling over link-feasible sets (paper Section 5.3).

Within one interval, the messages with non-zero allocations must be packed
so that every message holds *all* the links of its path simultaneously — a
preemptive multiprocessor-task scheduling problem [BDW86].  A **link
feasible set** (Def. 5.5) is a set of messages that pairwise share no
link; all its members can be transmitted at once.  Associating a duration
``y_j`` with each feasible set, the interval is schedulable iff

    minimise  sum_j y_j
    s.t.      sum_{j : M_h in set_j} y_j = p_hk   for every message h

has an optimum not exceeding the interval length.

The paper notes the variable count can be O(2^N); we solve the LP by
**column generation**: start from singleton sets, and repeatedly price in
the maximum-dual-weight independent set of the conflict graph (found by a
small branch-and-bound) until no set has reduced cost below zero.  The
singleton round is never sent to a solver: its master is
``min 1'y  s.t.  I y = p, y >= 0``, whose only feasible point is
``y = p`` with equality duals exactly 1, so :class:`_PackingState`
prices that closed form at construction — through the same ``absorb``
that prices every solved round.  A packing of **one message** (3 228 of
3 640 per ``matrix_cold`` pass) is that closed form and nothing more:
its one slot is its demand, so its state stops before the conflict
graph, the ``LPSolution`` and the independent-set search, and
``finish`` reads the demand where it would read a solution — the same
fit-or-rescale rule every packing ends in.

A schedule has one such packing LP per active interval, and the LPs are
mutually independent — :func:`schedule_intervals` therefore runs their
column-generation rounds in lockstep and hands each round's LPs to
:meth:`LPBackend.solve_batch`, which (on HiGHS) stitches them into a
single block-diagonal solve.  Sequential and batched runs add the same
columns and reach the same per-interval optima; only solver wall time
differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.assignment import PathAssignment
from repro.core.interval_allocation import IntervalAllocation
from repro.errors import IntervalSchedulingError
from repro.solvers import get_backend
from repro.solvers.base import (
    LP_TOL,
    LPBackend,
    LPProblem,
    LPSolution,
    exceeds_tolerance,
)

__all__ = [
    "LP_TOL",
    "FeasibleSetSlot",
    "IntervalSchedule",
    "conflict_graph",
    "greedy_schedule_interval",
    "max_weight_independent_set",
    "schedule_interval",
    "schedule_intervals",
]

#: Branch-and-bound nodes a pricing call visits before settling for its best.
MWIS_NODE_BUDGET = 100_000

#: Solver rounds (one priced column each) a packing may take after the
#: closed-form singleton round.
MAX_PRICING_ROUNDS = 500


@dataclass(frozen=True)
class FeasibleSetSlot:
    """One packing slot: the messages transmitted together and for how long."""

    messages: frozenset[str]
    duration: float


@dataclass(frozen=True)
class IntervalSchedule:
    """The packed slots of one (maximal subset, interval) pair.

    ``total_time`` is the packing makespan; scheduling succeeded iff it
    fits the interval length (checked by :func:`schedule_interval`).
    """

    interval: int
    slots: tuple[FeasibleSetSlot, ...]

    @property
    def total_time(self) -> float:
        return sum(slot.duration for slot in self.slots)

    def message_time(self, name: str) -> float:
        """Total transmission time a message receives in this interval."""
        return sum(s.duration for s in self.slots if name in s.messages)


def conflict_graph(
    assignment: PathAssignment,
    messages: list[str],
) -> dict[str, set[str]]:
    """Adjacency of the conflict graph: an edge joins two messages that
    share at least one link (and hence cannot transmit simultaneously)."""
    adjacency: dict[str, set[str]] = {name: set() for name in messages}
    link_sets = {name: set(assignment.links(name)) for name in messages}
    for i, first in enumerate(messages):
        for second in messages[i + 1:]:
            if link_sets[first] & link_sets[second]:
                adjacency[first].add(second)
                adjacency[second].add(first)
    return adjacency


def max_weight_independent_set(
    adjacency: dict[str, set[str]],
    weights: dict[str, float],
) -> tuple[frozenset[str], float]:
    """(Near-)maximum-weight independent set by budgeted branch and bound.

    Vertices with non-positive weight are dropped up front (they never
    help).  Exact on the small conflict graphs typical of one interval;
    on large sparse graphs — where the suffix bound prunes poorly and the
    search would go exponential — :data:`MWIS_NODE_BUDGET` caps exploration
    and the best set found so far is returned.  Used as a column-
    generation pricer, a non-optimal set only makes the pricing
    conservative (columns stop being added earlier); every generated
    schedule remains valid.
    """
    vertices = sorted(
        (v for v in adjacency if weights.get(v, 0.0) > LP_TOL),
        key=lambda v: -weights[v],
    )
    best_set: frozenset[str] = frozenset()
    best_weight = 0.0
    suffix_weight = [0.0] * (len(vertices) + 1)
    for i in range(len(vertices) - 1, -1, -1):
        suffix_weight[i] = suffix_weight[i + 1] + weights[vertices[i]]

    # Greedy seed: a good incumbent makes the bound prune far earlier.
    seed: list[str] = []
    seed_blocked: set[str] = set()
    seed_weight = 0.0
    for vertex in vertices:
        if vertex not in seed_blocked:
            seed.append(vertex)
            seed_weight += weights[vertex]
            seed_blocked |= adjacency[vertex]
    best_set = frozenset(seed)
    best_weight = seed_weight

    chosen: list[str] = []
    visited = 0

    def branch(i: int, weight: float, blocked: set[str]) -> None:
        nonlocal best_set, best_weight, visited
        visited += 1
        if weight > best_weight:
            best_weight = weight
            best_set = frozenset(chosen)
        if (
            i >= len(vertices)
            or weight + suffix_weight[i] <= best_weight
            or visited > MWIS_NODE_BUDGET
        ):
            return
        vertex = vertices[i]
        if vertex not in blocked:
            chosen.append(vertex)
            branch(
                i + 1,
                weight + weights[vertex],
                blocked | adjacency[vertex],
            )
            chosen.pop()
        branch(i + 1, weight, blocked)

    branch(0, 0.0, set())
    return best_set, best_weight


class _PackingState:
    """Column-generation state of one interval's packing LP.

    Holds the incidence matrix column-wise, as the LP layout stores it:
    each feasible-set column appends its members' row indices, sorted,
    so a round's master is the arrays as they stand.
    :func:`schedule_interval` drives one state to
    convergence; :func:`schedule_intervals` drives many in lockstep so
    each round's LPs can be solved as one batch.

    Construction absorbs the closed-form singleton round (module
    docstring): a packing whose heaviest independent set weighs at most
    1 under unit duals — a complete conflict graph — is ``done`` at
    birth, and one of at most one message is done before it has any of
    the column-generation machinery.
    """

    def __init__(
        self,
        assignment: PathAssignment,
        interval: int,
        demands: Mapping[str, float],
        interval_length: float,
    ) -> None:
        self.interval = interval
        self.interval_length = float(interval_length)
        self.messages = sorted(
            name for name, p in demands.items() if p > LP_TOL
        )
        self.p = np.array(
            [demands[m] for m in self.messages], dtype=np.float64
        )
        n = len(self.messages)
        self.columns: list[frozenset[str]] = [
            frozenset([m]) for m in self.messages
        ]
        self.solution: LPSolution | None = None
        self.solved_columns = n
        self.done = n < 2
        if self.done:  # its slot is its demand: finish reads p
            return
        self._index = {name: i for i, name in enumerate(self.messages)}
        self.adjacency = conflict_graph(assignment, self.messages)
        self.known: set[frozenset[str]] = set(self.columns)
        # Singleton columns form an identity incidence to start from.
        self._member_rows: list[int] = list(range(n))
        self._starts: list[int] = list(range(n + 1))
        self.absorb(
            LPSolution(
                success=True,
                x=self.p,
                objective=float(self.p.sum()),
                dual_eq=np.ones(n),
                iterations=0,
            )
        )

    def problem(self) -> LPProblem:
        """The current restricted master LP (minimise total duration)."""
        num_cols = len(self.columns)
        bounds = np.zeros((num_cols, 2))
        bounds[:, 1] = np.inf
        return LPProblem(
            c=np.ones(num_cols),
            bounds=bounds,
            start=np.array(self._starts, dtype=np.int32),
            index=np.array(self._member_rows, dtype=np.int32),
            value=np.ones(len(self._member_rows)),
            row_lower=self.p,
            row_upper=self.p,
            num_ub=0,
        )

    def absorb(self, solution: LPSolution) -> None:
        """Take one round's LP solution; price a new column or finish."""
        if not solution.success:  # pragma: no cover - singletons keep it feasible
            raise IntervalSchedulingError(
                self.interval, float("inf"), self.interval_length
            )
        self.solution = solution
        self.solved_columns = len(self.columns)
        if solution.dual_eq is None:  # pragma: no cover - all backends price
            # Without duals there is no pricing signal; stop with the
            # columns generated so far (the packing stays valid, merely
            # possibly longer than the true LP optimum).
            self.done = True
            return
        weights = {
            name: float(solution.dual_eq[i])
            for i, name in enumerate(self.messages)
        }
        candidate, weight = max_weight_independent_set(
            self.adjacency, weights
        )
        if weight <= 1.0 + LP_TOL or candidate in self.known:
            self.done = True
            return
        self.columns.append(candidate)
        self.known.add(candidate)
        self._member_rows.extend(
            sorted(self._index[name] for name in candidate)
        )
        self._starts.append(len(self._member_rows))

    def finish(self) -> IntervalSchedule:
        """Check the converged packing against the interval length."""
        x = self.p if self.solution is None else self.solution.x
        durations = [float(x[j]) for j in range(self.solved_columns)]
        total = sum(d for d in durations if d > LP_TOL)
        if exceeds_tolerance(total, self.interval_length):
            raise IntervalSchedulingError(
                self.interval, total, self.interval_length
            )
        if total > self.interval_length:
            # Inside the shared tolerance band the overshoot is solver
            # rounding, not infeasibility: rescale so the packed slots
            # fit the interval exactly (well inside the coverage
            # tolerance downstream).
            scale = self.interval_length / total
            durations = [d * scale for d in durations]
        slots = tuple(
            FeasibleSetSlot(self.columns[j], durations[j])
            for j in range(self.solved_columns)
            if durations[j] > LP_TOL
        )
        return IntervalSchedule(self.interval, slots)


def schedule_interval(
    assignment: PathAssignment,
    interval: int,
    demands: dict[str, float],
    interval_length: float,
    backend: LPBackend | None = None,
) -> IntervalSchedule:
    """Pack one interval's demands into link-feasible sets.

    Parameters
    ----------
    assignment:
        Fixes each message's link set (the conflict structure).
    interval:
        Interval index (for error reporting and the result).
    demands:
        ``message -> required transmission time`` within this interval
        (the allocation LP's ``p_hk`` values).
    interval_length:
        Length of the interval; the packing must fit inside it.
    backend:
        LP solver (see :mod:`repro.solvers`); the environment's best
        available backend by default.  A backend that cannot report
        equality duals stops column generation after its first solve
        (conservative but valid).

    Raises
    ------
    IntervalSchedulingError
        When the minimal packing makespan exceeds the interval length —
        the failure mode the paper reports for three load points on the
        8x8 torus (Fig. 9).
    """
    state = _PackingState(assignment, interval, demands, interval_length)
    if not state.done:
        if backend is None:
            backend = get_backend()
        _converge(state, backend)
    return state.finish()


def _converge(state: _PackingState, backend: LPBackend) -> None:
    """Drive one state's column generation to convergence, solve by solve."""
    for _ in range(MAX_PRICING_ROUNDS):
        state.absorb(backend.solve(state.problem()))
        if state.done:
            break


def greedy_schedule_interval(
    assignment: PathAssignment,
    interval: int,
    demands: dict[str, float],
) -> IntervalSchedule:
    """A largest-demand-first list-scheduling packer.

    A second, independent implementation of interval packing used for
    cross-validation: at every step it forms a link-feasible set greedily
    (largest remaining demand first, adding every non-conflicting
    message) and runs it until its smallest member drains.  Its makespan
    upper-bounds the column-generation LP optimum — a property the test
    suite checks — and unlike the LP it never *under*-reports, so
    ``greedy fits`` implies ``LP fits``.  No interval length is enforced;
    callers compare ``total_time`` themselves.
    """
    remaining = {
        name: demand for name, demand in demands.items() if demand > LP_TOL
    }
    messages = sorted(remaining)
    adjacency = conflict_graph(assignment, messages)
    slots: list[FeasibleSetSlot] = []
    while remaining:
        batch: list[str] = []
        blocked: set[str] = set()
        for name in sorted(remaining, key=lambda n: (-remaining[n], n)):
            if name in blocked:
                continue
            batch.append(name)
            blocked |= adjacency[name]
        duration = min(remaining[name] for name in batch)
        slots.append(FeasibleSetSlot(frozenset(batch), duration))
        for name in batch:
            remaining[name] -= duration
            if remaining[name] <= LP_TOL:
                del remaining[name]
    return IntervalSchedule(interval, tuple(slots))


def schedule_intervals(
    assignment: PathAssignment,
    allocation: IntervalAllocation,
    interval_lengths: Sequence[float],
    backend: LPBackend | None = None,
    batch: bool = True,
) -> dict[int, IntervalSchedule]:
    """Schedule every interval used by one subset's allocation.

    Returns ``interval index -> IntervalSchedule``.  With ``batch=True``
    (the default) the per-interval column-generation loops run in
    lockstep and each round's independent LPs go through
    :meth:`~repro.solvers.base.LPBackend.solve_batch` — one
    block-diagonal HiGHS solve per round instead of one solve per
    interval.  Intervals drop out of the lockstep as their pricing
    converges; the columns generated, the per-interval optima, and the
    fit-the-interval verdicts are identical to sequential solving.
    The lockstep starts after the closed-form singleton round: intervals
    that round already settled never reach the backend, and
    :data:`MAX_PRICING_ROUNDS` caps the solver rounds that follow it.
    """
    if backend is None:
        backend = get_backend()
    intervals = allocation.intervals_used()
    states = {
        k: _PackingState(
            assignment, k, allocation.per_interval(k), interval_lengths[k]
        )
        for k in intervals
    }
    active = [state for state in states.values() if not state.done]
    if not batch or len(active) <= 1:
        for state in active:
            _converge(state, backend)
    else:
        for _ in range(MAX_PRICING_ROUNDS):
            pending = [state for state in active if not state.done]
            if not pending:
                break
            solutions = backend.solve_batch(
                [state.problem() for state in pending]
            )
            for state, solution in zip(pending, solutions):
                state.absorb(solution)
    return {k: states[k].finish() for k in intervals}
