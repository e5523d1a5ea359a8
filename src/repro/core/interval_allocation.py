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
from repro.solvers.base import (
    LP_TOL,
    LPBackend,
    LPProblem,
    LPProblemBuilder,
    exceeds_tolerance,
)
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
    lengths = np.asarray(bounds.intervals.lengths, dtype=np.float64)
    num_k = int(lengths.size)

    # Variable layout: one x per (message, active interval) [, then z].
    # Row-major nonzero of the subset's activity slice enumerates the
    # pairs message-by-message with intervals ascending — exactly the
    # legacy per-message loop order.
    sub_rows = np.array(
        [bounds.index[name] for name in subset], dtype=np.int64
    )
    sub_activity = bounds.activity[sub_rows] if subset else np.zeros(
        (0, num_k), dtype=bool
    )
    msg_of_var, var_ks = np.nonzero(sub_activity)
    num_x = int(var_ks.size)
    counts = sub_activity.sum(axis=1).astype(np.int64)
    var_starts = np.zeros(len(subset) + 1, dtype=np.int64)
    np.cumsum(counts, out=var_starts[1:])
    variables = tuple(
        (subset[int(i)], int(k)) for i, k in zip(msg_of_var, var_ks)
    )
    num_cols = num_x if fixed_capacity else num_x + 1
    z_index = num_x

    builder = LPProblemBuilder(num_cols)

    # Equality (3): per message, allocations sum to its duration.  The
    # variable ids of message i are the contiguous block
    # var_starts[i]:var_starts[i+1], so the whole system is one scatter.
    durations = np.array(
        [bounds.bounds[name].duration for name in subset], dtype=np.float64
    )
    builder.add_eq_rows(
        durations,
        rows=msg_of_var,
        cols=np.arange(num_x, dtype=np.int64),
        values=np.ones(num_x),
    )

    # Inequality (4): per (link, interval), sum of allocations bounded
    # by the interval length (scaled by z in the compiler's form).  Each
    # (link, interval) pair is encoded as link_id * K + k; rows keep the
    # legacy first-appearance order over the message → link → interval
    # traversal, and duplicate (row, column) hits collapse to a single
    # 1.0 coefficient (the legacy dense assembly's set semantics).
    link_ids: dict[Link, int] = {}
    per_msg_links: list[np.ndarray] = []
    for name in subset:
        ids = [
            link_ids.setdefault(link, len(link_ids))
            for link in assignment.links(name)
        ]
        per_msg_links.append(np.asarray(ids, dtype=np.int64))
    link_of_id = list(link_ids)

    code_parts: list[np.ndarray] = []
    col_parts: list[np.ndarray] = []
    for i in range(len(subset)):
        lids = per_msg_links[i]
        k_i = var_ks[var_starts[i] : var_starts[i + 1]]
        if lids.size == 0 or k_i.size == 0:
            continue
        code_parts.append(
            np.repeat(lids * num_k, k_i.size) + np.tile(k_i, lids.size)
        )
        col_parts.append(
            np.tile(
                np.arange(var_starts[i], var_starts[i + 1], dtype=np.int64),
                lids.size,
            )
        )

    row_labels: list[tuple[str, Link | None, int]] = []
    if code_parts:
        codes = np.concatenate(code_parts)
        cols = np.concatenate(col_parts)
        uniq_codes, first_pos, inverse = np.unique(
            codes, return_index=True, return_inverse=True
        )
        appearance = np.argsort(first_pos, kind="stable")
        rank = np.empty(appearance.size, dtype=np.int64)
        rank[appearance] = np.arange(appearance.size)
        entry_rows = rank[inverse]
        pair = entry_rows * np.int64(num_cols) + cols
        _, keep = np.unique(pair, return_index=True)
        row_codes = uniq_codes[appearance]
        row_ks = row_codes % num_k
        num_link_rows = int(row_codes.size)
        rhs = lengths[row_ks] if fixed_capacity else np.zeros(num_link_rows)
        builder.add_ub_rows(
            rhs,
            rows=entry_rows[keep],
            cols=cols[keep],
            values=np.ones(keep.size),
        )
        if not fixed_capacity:
            builder.add_ub_entries(
                np.arange(num_link_rows, dtype=np.int64),
                np.full(num_link_rows, z_index, dtype=np.int64),
                -lengths[row_ks],
            )
        row_labels.extend(
            ("link", link_of_id[int(code) // num_k], int(code) % num_k)
            for code in row_codes
        )

    # Feedback caps: total subset allocation into interval k <= cap.
    for k, cap in (interval_caps or {}).items():
        columns = np.flatnonzero(var_ks == k)
        if columns.size == 0:
            continue
        builder.add_ub_rows(
            [max(cap, 0.0)],
            rows=np.zeros(columns.size, dtype=np.int64),
            cols=columns,
            values=np.ones(columns.size),
        )
        row_labels.append(("cap", None, k))

    # Objective: minimise z (constant in the feasibility form).  x is
    # bounded by interval lengths (a message cannot transmit longer
    # than the interval it sits in); z keeps the default [0, inf).
    builder.set_upper(np.arange(num_x, dtype=np.int64), lengths[var_ks])
    if not fixed_capacity:
        builder.set_objective([z_index], [1.0])

    return AllocationProblem(
        problem=builder.build(),
        variables=variables,
        eq_messages=tuple(subset),
        ub_rows=tuple(row_labels),
        fixed_capacity=fixed_capacity,
    )
