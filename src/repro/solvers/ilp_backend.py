"""The integer reference: exact MILP solves and the AssignPaths gap.

:func:`solve_integer` solves an
:class:`~repro.solvers.base.LPProblem` with integrality restrictions
via ``scipy.optimize.milp`` (HiGHS branch-and-bound).  It is a function,
not an :class:`~repro.solvers.base.LPBackend`: column-generation
pricing in interval scheduling needs exact equality duals, which
``milp`` does not expose, so the compiler's two LP stages have no use
for an integer solver and always run on an LP backend.

On top of it, :func:`assignment_gap` formulates **optimal path
assignment** as an ILP and scores the paper's AssignPaths heuristic
against it:

- binary ``x[m, p]`` for every message ``m`` and candidate minimal path
  ``p`` in its pool (the same ``minimal_path_pool`` enumeration the
  heuristic draws from), continuous ``z`` for the peak;
- ``sum_p x[m, p] == 1`` per message;
- ``sum_{m, p : link in p} forced[m, k] * x[m, p] - len_k * z <= 0``
  per (link, interval) — the sharpened *spot* utilisation of
  :mod:`repro.core.utilization` made assignment-dependent;
- minimise ``z``.

The objective is the peak spot ratio (``UtilizationReport.max_spot``),
not the paper's link-average ``U``: the link average divides by the
window *union* of the messages crossing a link, a denominator that
itself depends on the chosen assignment — a nonlinear term no ILP row
can carry.  Peak spot is linear in ``x``, is the quantity the
utilisation gate sharpens, and upper-bounds per-interval congestion, so
the reported gap ``(heuristic - optimal) / optimal`` measures the
heuristic against the exact optimum of a like-for-like objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.solvers.base import LPProblem, LPProblemBuilder, LPSolution

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.assignment import PathAssignment
    from repro.core.timebounds import TimeBoundSet
    from repro.topology.base import Topology

__all__ = ["AssignmentGap", "assignment_gap", "solve_integer"]


def solve_integer(
    problem: LPProblem,
    integrality: np.ndarray,
    time_limit: float | None = None,
) -> LPSolution:
    """Solve a problem with integrality restrictions.

    ``integrality`` follows the ``scipy.optimize.milp`` convention per
    variable (0 = continuous, 1 = integer).  Returns an
    :class:`~repro.solvers.base.LPSolution`; ``dual_eq`` is always
    ``None`` (MILPs have no LP duals) and ``iterations`` reports the
    branch-and-bound node count.  Requires scipy >= 1.9.
    """
    import time

    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csc_array

    matrix = csc_array(
        (problem.value, problem.index, problem.start),
        shape=(problem.num_constraints, problem.num_variables),
    )
    constraints = []
    if problem.b_eq is not None:
        constraints.append(LinearConstraint(
            matrix[problem.num_ub :], problem.b_eq, problem.b_eq
        ))
    if problem.b_ub is not None:
        constraints.append(LinearConstraint(
            matrix[: problem.num_ub], -np.inf, problem.b_ub
        ))
    options: dict[str, float] = {}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    start = time.perf_counter()
    result = milp(
        c=problem.c,
        constraints=constraints,
        integrality=np.asarray(integrality, dtype=np.int64),
        bounds=Bounds(problem.bounds[:, 0], problem.bounds[:, 1]),
        options=options or None,
    )
    wall_ms = (time.perf_counter() - start) * 1e3
    x = (
        np.asarray(result.x, dtype=np.float64)
        if result.x is not None
        else np.empty(0, dtype=np.float64)
    )
    return LPSolution(
        success=bool(result.success),
        x=x,
        objective=float(result.fun) if result.fun is not None else 0.0,
        dual_eq=None,
        iterations=int(getattr(result, "mip_node_count", 0) or 0),
        message=str(result.message),
        wall_ms=wall_ms,
    )


@dataclass(frozen=True)
class AssignmentGap:
    """Heuristic-vs-optimal peak spot utilisation for one instance."""

    #: Peak spot ratio of the heuristic's assignment.
    heuristic_peak: float
    #: Exact ILP optimum over the same candidate pools.
    optimal_peak: float
    #: ``(heuristic - optimal) / optimal`` (0 when the optimum is ~0).
    gap: float
    #: ``"optimal"``, or the milp failure message when the solve failed.
    status: str
    #: Routed messages in the ILP.
    messages: int
    #: Binary path-choice variables (pool sizes summed).
    variables: int
    #: Branch-and-bound nodes the MILP explored.
    nodes: int

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def assignment_gap(
    bounds: "TimeBoundSet",
    topology: "Topology",
    endpoints: Mapping[str, tuple[int, int]],
    assignment: "PathAssignment | Mapping[str, Sequence[int]]",
    max_paths: int = 48,
    time_limit: float | None = 60.0,
) -> AssignmentGap:
    """Score a heuristic assignment against the exact ILP optimum.

    ``assignment`` may be a :class:`~repro.core.assignment.PathAssignment`
    or the plain ``message name -> node path`` mapping a compiled
    schedule carries (``schedule.assignment``).  ``max_paths`` must
    match the pool cap the heuristic ran with: both sides then optimise
    over the identical candidate set, so the gap is attributable to the
    search, not the pools.  ``time_limit`` bounds the branch-and-bound
    (seconds); on timeout the incumbent (an upper bound on the true
    optimum) is used and ``status`` carries the solver message, so a
    reported gap is conservative.
    """
    from repro.core.assignment import PathAssignment
    from repro.core.utilization import forced_load_matrix
    from repro.topology.routing import links_on_path

    if not isinstance(assignment, PathAssignment):
        assignment = PathAssignment(
            topology,
            endpoints,
            {name: list(assignment[name]) for name in endpoints},
        )
    heuristic_peak = _peak_spot(bounds, assignment)

    forced = forced_load_matrix(bounds)
    lengths = np.asarray(bounds.intervals.lengths, dtype=np.float64)
    num_intervals = lengths.size

    # Variable layout: one binary per (message, candidate path), the
    # continuous peak variable z last.
    pools = {
        name: topology.minimal_path_pool(src, dst, max_paths)
        for name, (src, dst) in endpoints.items()
    }
    var_base: dict[str, int] = {}
    offset = 0
    for name, pool in pools.items():
        var_base[name] = offset
        offset += len(pool)
    z_col = offset
    num_vars = offset + 1

    # (link, interval) spot rows, allocated lazily as candidates touch
    # them; row r reads  sum forced[m, k] * x[m, p ni link] - len_k * z <= 0.
    row_of: dict[tuple[tuple[int, int], int], int] = {}
    rows: list[int] = []
    cols: list[int] = []
    values: list[float] = []
    for name, pool in pools.items():
        i = bounds.index[name]
        active = np.flatnonzero(forced[i, :num_intervals] > 0.0)
        if active.size == 0:
            continue
        for p_index, path in enumerate(pool):
            col = var_base[name] + p_index
            for link in links_on_path(path):
                for k in active:
                    row = row_of.setdefault(
                        (link, int(k)), len(row_of)
                    )
                    rows.append(row)
                    cols.append(col)
                    values.append(float(forced[i, k]))

    builder = LPProblemBuilder(num_vars)
    builder.set_objective([z_col], [1.0])
    builder.set_upper(list(range(z_col)), [1.0] * z_col)
    # One-path-per-message equalities.
    for name, pool in pools.items():
        base = var_base[name]
        builder.add_eq_rows(
            [1.0],
            rows=[0] * len(pool),
            cols=list(range(base, base + len(pool))),
            values=[1.0] * len(pool),
        )
    if row_of:
        z_rows = list(range(len(row_of)))
        z_values = [-float(lengths[k]) for (_, k), r in
                    sorted(row_of.items(), key=lambda item: item[1])]
        builder.add_ub_rows([0.0] * len(row_of))
        builder.add_ub_entries(rows, cols, values)
        builder.add_ub_entries(z_rows, [z_col] * len(row_of), z_values)
    problem = builder.build()

    integrality = np.ones(num_vars, dtype=np.int64)
    integrality[z_col] = 0
    solution = solve_integer(problem, integrality, time_limit=time_limit)
    if not solution.success or solution.x.size == 0:
        return AssignmentGap(
            heuristic_peak=heuristic_peak,
            optimal_peak=float("nan"),
            gap=float("nan"),
            status=solution.message or "milp failed",
            messages=len(pools),
            variables=z_col,
            nodes=solution.iterations,
        )
    optimal_peak = float(solution.objective)
    status = "optimal" if "Optimal" in solution.message else solution.message
    if optimal_peak > 1e-9:
        gap = (heuristic_peak - optimal_peak) / optimal_peak
    else:
        gap = 0.0
    return AssignmentGap(
        heuristic_peak=heuristic_peak,
        optimal_peak=optimal_peak,
        gap=gap,
        status=status,
        messages=len(pools),
        variables=z_col,
        nodes=solution.iterations,
    )


def _peak_spot(bounds: "TimeBoundSet", assignment: "PathAssignment") -> float:
    """Peak spot ratio of a concrete assignment (the ILP's objective)."""
    from repro.core.utilization import UtilizationState

    state = UtilizationState(bounds, assignment)
    ratios = state.spot_ratios()
    return float(ratios.max()) if ratios.size else 0.0
