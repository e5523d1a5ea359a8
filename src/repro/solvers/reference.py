"""A deterministic dense two-phase simplex — the scipy-free reference.

Environments without scipy (the package's only LP dependency) still need
a working scheduled-routing compiler; this backend solves the compiler's
LPs with nothing beyond numpy, which is already a hard dependency of the
whole library.  It is a textbook dense tableau simplex:

- general bounds are reduced to ``x >= 0`` by shifting lows and adding
  explicit upper-bound rows;
- every constraint becomes an equality with a slack/surplus variable,
  right-hand sides are made non-negative by row negation, and rows that
  lack a natural basic slack get an artificial variable;
- **phase 1** minimises the artificial sum (infeasible when it stays
  positive), redundant rows whose artificial cannot be pivoted out are
  dropped;
- **phase 2** minimises the true objective with artificial columns
  barred from entering.

An LP without rows never reaches the tableau: each variable sits at
its cost-minimising bound where HiGHS puts it (a zero-cost one at its
lower bound if finite, else its upper, else 0), and an infinite such
bound is the unbounded verdict.

Pivoting uses Dantzig's rule (most negative reduced cost, first index on
ties) and falls back to Bland's anti-cycling rule after a degeneracy
budget, so every run terminates and — all tie-breaks being index-based —
is bit-for-bit deterministic across processes and platforms.

Equality duals come for free: the reduced cost of row ``i``'s identity
column (its artificial or natural slack) at the phase-2 optimum equals
``-y_i``; the column-generation pricer in interval scheduling consumes
exactly these.  Without equality rows they are an empty array, as on
HiGHS.

The tableau is dense and the rule is Bland-safe rather than fast: this
backend is meant for correctness cross-checks and small fixtures, not
for the 64-node sweeps (use ``highs`` there).
"""

from __future__ import annotations

import numpy as np

from repro.solvers.base import (
    LPProblem,
    LPSolution,
    TalliedBackend,
    failure_solution,
)

#: Reduced costs above ``-_RCOST_TOL`` count as non-negative (optimal).
_RCOST_TOL = 1e-9

#: Pivot entries at or below this magnitude are treated as zero.
_PIVOT_TOL = 1e-10

#: Pivots one solve may spend before it fails with "iteration limit".
_MAX_ITERATIONS = 100_000

#: Phase-1 objective above this value means the LP is infeasible.
_FEAS_TOL = 1e-7


class _Tableau:
    """Canonical-form tableau with an incrementally maintained cost row."""

    def __init__(
        self, rows: np.ndarray, rhs: np.ndarray, basis: list[int]
    ) -> None:
        self.rows = rows
        self.rhs = rhs
        self.basis = basis
        self.iterations = 0

    def reduced_costs(self, costs: np.ndarray) -> np.ndarray:
        r = costs.astype(float).copy()
        for i, j in enumerate(self.basis):
            if costs[j] != 0.0:
                r -= costs[j] * self.rows[i]
        return r

    def pivot(self, i: int, j: int, r: np.ndarray) -> None:
        piv = self.rows[i, j]
        self.rows[i] /= piv
        self.rhs[i] /= piv
        column = self.rows[:, j].copy()
        column[i] = 0.0
        self.rows -= np.outer(column, self.rows[i])
        self.rhs -= column * self.rhs[i]
        r -= r[j] * self.rows[i]
        self.basis[i] = j
        self.iterations += 1

    def minimize(
        self,
        costs: np.ndarray,
        allowed: np.ndarray,
    ) -> tuple[str, np.ndarray]:
        """Run the simplex; returns ``(status, reduced_costs)``.

        ``status`` is ``"optimal"``, ``"unbounded"`` or ``"iterations"``.
        Dantzig's rule with a Bland fallback after a degeneracy budget.
        """
        r = self.reduced_costs(costs)
        bland_after = self.iterations + max(200, 20 * len(self.basis))
        while True:
            candidates = np.flatnonzero(allowed & (r < -_RCOST_TOL))
            if candidates.size == 0:
                return "optimal", r
            if self.iterations > _MAX_ITERATIONS:
                return "iterations", r
            if self.iterations < bland_after:
                j = int(candidates[np.argmin(r[candidates])])
            else:  # Bland: lowest eligible column index
                j = int(candidates[0])
            column = self.rows[:, j]
            eligible = np.flatnonzero(column > _PIVOT_TOL)
            if eligible.size == 0:
                return "unbounded", r
            ratios = self.rhs[eligible] / column[eligible]
            best = np.min(ratios)
            tied = eligible[ratios <= best + 1e-12]
            # Among ties leave the basic variable with the lowest index
            # (Bland's leaving rule — harmless under Dantzig, required
            # for termination under Bland).
            i = int(min(tied, key=lambda row: self.basis[row]))
            self.pivot(i, j, r)


class ReferenceSimplexBackend(TalliedBackend):
    """Deterministic numpy-only LP backend (see module docstring)."""

    name = "reference"

    def _solve(self, problem: LPProblem) -> LPSolution:
        c = problem.c
        n = c.size
        bounds = problem.bounds
        if problem.num_constraints == 0:
            # Each column at its cost-minimising bound, as HiGHS puts it
            # (module docstring); an infinite one is unbounded.
            lows, highs = bounds[:, 0], bounds[:, 1]
            x = np.where(c > 0.0, lows, np.where(c < 0.0, highs, lows))
            free = (c == 0.0) & np.isinf(x)
            x[free] = np.where(np.isinf(highs[free]), 0.0, highs[free])
            if np.isinf(x).any():
                return failure_solution("unbounded (a column without rows)")
            return LPSolution(
                success=True,
                x=x,
                objective=float(c @ x),
                dual_eq=np.empty(0),
                iterations=0,
                message="optimal (reference simplex)",
            )
        if not np.all(np.isfinite(bounds[:, 0])):
            return failure_solution("lower bounds must be finite")
        lows = bounds[:, 0].copy()
        highs = [
            None if np.isinf(high) else float(high) for high in bounds[:, 1]
        ]

        # Shifted problem in x' = x - low >= 0, on the dense views of
        # the constraint matrices: this backend is a dense tableau.
        eq_rows: list[np.ndarray] = []
        eq_rhs: list[float] = []
        a_eq = problem.a_eq
        if a_eq is not None:
            eq_rows = list(a_eq)
            eq_rhs = list(problem.b_eq - a_eq @ lows)
        ub_rows: list[np.ndarray] = []
        ub_rhs: list[float] = []
        a_ub = problem.a_ub
        if a_ub is not None:
            ub_rows = list(a_ub)
            ub_rhs = list(problem.b_ub - a_ub @ lows)
        for j, high in enumerate(highs):
            if high is not None:
                row = np.zeros(n)
                row[j] = 1.0
                ub_rows.append(row)
                ub_rhs.append(high - lows[j])

        num_eq = len(eq_rows)
        num_ub = len(ub_rows)
        m = num_eq + num_ub

        # Column layout: [x' (n) | slacks (num_ub) | artificials (<= m)].
        # ``sign[i]`` records row negation so duals can be mapped back.
        sign = np.ones(m)
        art_of_row: dict[int, int] = {}
        slack_of_row: dict[int, int] = {}
        num_art = 0
        for i in range(m):
            rhs = eq_rhs[i] if i < num_eq else ub_rhs[i - num_eq]
            if rhs < 0.0:
                sign[i] = -1.0
            if i < num_eq or sign[i] < 0.0:
                art_of_row[i] = num_art  # eq rows and negated ub rows
                num_art += 1
        total = n + num_ub + num_art
        rows = np.zeros((m, total))
        rhs_v = np.zeros(m)
        basis: list[int] = []
        for i in range(m):
            if i < num_eq:
                rows[i, :n] = sign[i] * eq_rows[i]
                rhs_v[i] = sign[i] * eq_rhs[i]
            else:
                k = i - num_eq
                rows[i, :n] = sign[i] * ub_rows[k]
                rhs_v[i] = sign[i] * ub_rhs[k]
                slack_col = n + k
                rows[i, slack_col] = sign[i]  # slack of a negated row = -1
                slack_of_row[i] = slack_col
            if i in art_of_row:
                art_col = n + num_ub + art_of_row[i]
                rows[i, art_col] = 1.0
                basis.append(art_col)
            else:
                basis.append(slack_of_row[i])

        tableau = _Tableau(rows, rhs_v, basis)
        art_columns = np.zeros(total, dtype=bool)
        art_columns[n + num_ub:] = True

        # Phase 1: drive the artificial sum to zero.
        if num_art:
            phase1 = np.zeros(total)
            phase1[art_columns] = 1.0
            status, _ = tableau.minimize(phase1, np.ones(total, dtype=bool))
            infeasibility = sum(
                tableau.rhs[i]
                for i, j in enumerate(tableau.basis)
                if art_columns[j]
            )
            if status == "iterations":
                return failure_solution(
                    "phase-1 iteration limit reached",
                    iterations=tableau.iterations,
                )
            if infeasibility > _FEAS_TOL:
                return failure_solution(
                    f"infeasible (artificial residual {infeasibility:.3e})",
                    iterations=tableau.iterations,
                )
            _expel_artificials(tableau, art_columns)

        # Phase 2: the true objective; artificials may not re-enter.
        costs = np.zeros(total)
        costs[:n] = c
        status, r = tableau.minimize(costs, ~art_columns)
        if status != "optimal":
            return failure_solution(
                f"phase-2 {status}", iterations=tableau.iterations
            )

        shifted = np.zeros(total)
        for i, j in enumerate(tableau.basis):
            shifted[j] = tableau.rhs[i]
        x = lows + shifted[:n]

        # Dual of row i: -(reduced cost of its identity column), times
        # the row's negation sign.  Dropped redundant rows keep dual 0.
        dual_eq = np.zeros(num_eq)
        if num_eq:  # eq rows have artificials, so phase 1 ran
            for original in tableau.row_origin:
                if original < num_eq:
                    col = n + num_ub + art_of_row[original]
                    dual_eq[original] = -sign[original] * r[col]

        return LPSolution(
            success=True,
            x=x,
            objective=float(c @ x),
            dual_eq=dual_eq,
            iterations=tableau.iterations,
            message="optimal (reference simplex)",
        )


def _expel_artificials(tableau: _Tableau, art_columns: np.ndarray) -> None:
    """Pivot zero-valued basic artificials out; drop redundant rows.

    After a feasible phase 1 every basic artificial sits at value ~0.  A
    nonzero non-artificial entry in its row lets us pivot it out; a row
    with none is a redundant constraint and is deleted so phase 2 can
    never push its artificial positive again.  ``tableau.row_origin``
    maps surviving rows back to original constraint indices (for duals).
    """
    keep: list[int] = []
    r = np.zeros(tableau.rows.shape[1])  # dummy cost row for pivots
    for i in range(len(tableau.basis)):
        if not art_columns[tableau.basis[i]]:
            keep.append(i)
            continue
        row = tableau.rows[i]
        candidates = np.flatnonzero(
            (~art_columns) & (np.abs(row) > _PIVOT_TOL)
        )
        if candidates.size:
            tableau.pivot(i, int(candidates[0]), r)
            keep.append(i)
        # else: redundant row — dropped below.
    if len(keep) != len(tableau.basis):
        tableau.rows = tableau.rows[keep]
        tableau.rhs = tableau.rhs[keep]
        tableau.basis = [tableau.basis[i] for i in keep]
    tableau.row_origin = keep
