"""Message-interval allocation (paper Section 5.2).

For one maximal subset, decide how much of each message is transmitted in
each of its active intervals.  The paper's constraints:

- (3) the allocations of a message across intervals sum to its
  transmission time;
- (4) the allocations of all messages using a link within an interval do
  not exceed the interval's length.

The paper notes the analogy to scheduling periodic tasks on multiple
processors [LM81] with the twist that a message occupies *several* links
simultaneously.  Because the downstream interval scheduling is preemptive,
the LP relaxation decides feasibility exactly at this stage; rather than a
bare feasibility check we minimise the worst per-(link, interval) load
factor ``z`` (constraint (4) scaled by ``z``), which spreads traffic and
maximises the chance that interval scheduling succeeds — the paper's
observed failure mode (Fig. 9) is exactly an allocation that satisfies
(4) but leaves some interval unpackable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.assignment import PathAssignment
from repro.core.timebounds import TimeBoundSet
from repro.errors import IntervalAllocationError
from repro.solvers import get_backend
from repro.solvers.base import LP_TOL, LPBackend, LPProblem, exceeds_tolerance
from repro.topology.base import Link

__all__ = [
    "LP_TOL",
    "AllocationProblem",
    "IntervalAllocation",
    "allocate_intervals",
    "build_allocation_problem",
]


@dataclass(frozen=True)
class AllocationProblem:
    """The allocation LP plus the labels of its rows and columns.

    Shared between :func:`allocate_intervals` (which solves the
    ``z``-scaled optimisation form) and the dual diagnoser of
    :mod:`repro.diagnose.duals` (which probes the fixed-capacity
    feasibility form and needs to know *which message* each equality
    row and *which (link, interval)* each inequality row talks about in
    order to translate a Farkas ray into a refutation).

    Attributes
    ----------
    problem:
        The standard-form LP.
    variables:
        Column labels: one ``(message, interval)`` pair per ``x``
        column, in column order (the trailing ``z`` column of the
        scaled form is not listed).
    eq_messages:
        Equality-row labels: the message whose duration each row sums.
    ub_rows:
        Inequality-row labels: ``("link", link, k)`` for paper
        constraint (4) rows, ``("cap", None, k)`` for feedback-cap rows.
    fixed_capacity:
        True for the feasibility form (no ``z`` column, capacities at
        their real interval lengths).
    """

    problem: LPProblem
    variables: tuple[tuple[str, int], ...]
    eq_messages: tuple[str, ...]
    ub_rows: tuple[tuple[str, Link | None, int], ...]
    fixed_capacity: bool


@dataclass(frozen=True)
class IntervalAllocation:
    """Solution of the allocation LP for one maximal subset.

    ``allocation[(message, k)]`` is the transmission time assigned to the
    message within interval ``A_k`` (the paper's ``P = [p_ik]`` restricted
    to this subset); ``load_factor`` is the minimised worst
    (link, interval) load ratio ``z``.
    """

    subset: tuple[str, ...]
    allocation: dict[tuple[str, int], float]
    load_factor: float

    def per_interval(self, k: int) -> dict[str, float]:
        """Messages with positive allocation in interval ``k``."""
        return {
            name: time
            for (name, interval), time in self.allocation.items()
            if interval == k and time > LP_TOL
        }

    def intervals_used(self) -> tuple[int, ...]:
        """Sorted interval indices that carry any allocation."""
        return tuple(
            sorted({k for (_, k), t in self.allocation.items() if t > LP_TOL})
        )


def allocate_intervals(
    bounds: TimeBoundSet,
    assignment: PathAssignment,
    subset: tuple[str, ...],
    subset_index: int = 0,
    interval_caps: dict[int, float] | None = None,
    backend: LPBackend | None = None,
) -> IntervalAllocation:
    """Solve the allocation LP for one maximal subset.

    ``interval_caps`` optionally bounds the subset's *total* allocation
    placed into specific intervals — the feedback knob the compiler turns
    when interval scheduling reports an unpackable interval (the paper's
    Fig. 3 feedback arrow): demand is pushed out of the congested
    interval and the downstream packing retried.

    ``backend`` selects the LP solver (see :mod:`repro.solvers`); by
    default the environment's best available backend is used.

    Raises :class:`~repro.errors.IntervalAllocationError` when constraints
    (3)-(4) (plus any caps) cannot be met — the subset's messages demand
    more of some link-interval than it can carry.
    """
    built = build_allocation_problem(
        bounds, assignment, subset, interval_caps=interval_caps
    )
    if backend is None:
        backend = get_backend()
    solution = backend.solve(built.problem)
    if not solution.success:
        raise IntervalAllocationError(
            subset_index, f"allocation LP failed: {solution.message}"
        )
    num_x = len(built.variables)
    z = float(solution.x[num_x])
    if exceeds_tolerance(z, 1.0):
        raise IntervalAllocationError(
            subset_index,
            f"minimal worst link-interval load {z:.4f} exceeds 1 "
            "(paper constraint (4))",
        )
    allocation = {
        built.variables[i]: float(solution.x[i])
        for i in range(num_x)
        if solution.x[i] > LP_TOL
    }
    return IntervalAllocation(
        subset=subset,
        allocation=allocation,
        load_factor=z,
    )


def build_allocation_problem(
    bounds: TimeBoundSet,
    assignment: PathAssignment,
    subset: tuple[str, ...],
    interval_caps: dict[int, float] | None = None,
    fixed_capacity: bool = False,
) -> AllocationProblem:
    """Assemble the allocation LP for one maximal subset.

    With ``fixed_capacity=False`` (the compiler's form) the per-
    (link, interval) capacities are scaled by a trailing load-factor
    variable ``z`` which the objective minimises.  With
    ``fixed_capacity=True`` (the diagnoser's form) there is no ``z``:
    constraint (4) uses the real interval lengths and the LP is a pure
    feasibility probe, which is what Farkas-certificate extraction
    wants — an infeasible ray then combines *actual* capacities, not
    scaled ones.
    """
    lengths = bounds.intervals.lengths
    # Columns: one x per (message, active interval), message by message
    # with intervals ascending [, then z].  Rows: the (link, interval)
    # rows of constraint (4) in first-appearance order over the message
    # → link → interval traversal, then one row per feedback cap, then
    # the equality rows of constraint (3), one per message.  A column
    # lists its rows while they are still being numbered; a link a path
    # repeats hits its row once (coefficient 1.0).
    variables: list[tuple[str, int]] = []
    column_rows: list[list[int]] = []
    column_message: list[int] = []
    link_rows: dict[tuple[Link, int], int] = {}
    for i, name in enumerate(subset):
        ks = bounds.active_intervals(name)
        per_k: list[list[int]] = [[] for _ in ks]
        for link in assignment.links(name):
            for t, k in enumerate(ks):
                row = link_rows.setdefault((link, k), len(link_rows))
                per_k[t].append(row)
        variables.extend((name, k) for k in ks)
        column_rows.extend(per_k)
        column_message.extend([i] * len(ks))
    row_labels: list[tuple[str, Link | None, int]] = [
        ("link", link, k) for link, k in link_rows
    ]
    ub_rhs = [
        lengths[k] if fixed_capacity else 0.0 for _, k in link_rows
    ]

    # Feedback caps: total subset allocation into interval k <= cap.
    for k, cap in (interval_caps or {}).items():
        members = [j for j, (_, kk) in enumerate(variables) if kk == k]
        if not members:
            continue
        for j in members:
            column_rows[j].append(len(ub_rhs))
        ub_rhs.append(max(cap, 0.0))
        row_labels.append(("cap", None, k))

    num_ub = len(ub_rhs)
    index: list[int] = []
    start = [0]
    for rows, i in zip(column_rows, column_message):
        index.extend(sorted(set(rows)))
        index.append(num_ub + i)
        start.append(len(index))
    value = [1.0] * len(index)
    # x is bounded by its interval's length (a message cannot transmit
    # longer than the interval it sits in).
    cost = [0.0] * len(variables)
    upper = [lengths[k] for _, k in variables]
    if not fixed_capacity:
        # z, minimised in [0, inf), scales every (link, interval) row.
        index.extend(range(len(link_rows)))
        start.append(len(index))
        value.extend(-lengths[k] for _, k in link_rows)
        cost.append(1.0)
        upper.append(np.inf)
    col_bounds = np.zeros((len(upper), 2))
    col_bounds[:, 1] = upper
    durations = [bounds.bounds[name].duration for name in subset]
    return AllocationProblem(
        problem=LPProblem(
            c=np.array(cost),
            bounds=col_bounds,
            start=np.array(start, dtype=np.int32),
            index=np.array(index, dtype=np.int32),
            value=np.array(value),
            row_lower=np.array([-np.inf] * num_ub + durations),
            row_upper=np.array(ub_rhs + durations),
            num_ub=num_ub,
        ),
        variables=tuple(variables),
        eq_messages=tuple(subset),
        ub_rows=tuple(row_labels),
        fixed_capacity=fixed_capacity,
    )
