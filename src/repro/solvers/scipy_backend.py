"""LP backends on scipy's HiGHS: direct engine, batched.

One method is exposed: ``highs`` (HiGHS picks simplex or IPM itself).
Solves go through :class:`repro.solvers.highs_engine.HighsEngine`, a
persistent in-process HiGHS instance that takes each
:class:`~repro.solvers.base.LPProblem`'s column-wise arrays as they are
and is bit-identical to ``scipy.optimize.linprog``; if the private
bindings the engine needs are unavailable, every call falls back to
plain ``linprog`` on the problem's dense views.

Beyond single solves, ``solve_batch`` stitches the independent problems
into one block-diagonal HiGHS solve and de-stitches per-block
primals/duals (objectives are exact per block by separability); a
non-optimal stitched solve falls back to sequential solves so failing
blocks get linprog-identical diagnostics.

scipy is imported lazily, so importing this module — or the solver
registry — never requires scipy; environments without it use the
:mod:`~repro.solvers.reference` backend.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.solvers.base import LPProblem, LPSolution, TalliedBackend


class ScipyLinprogBackend(TalliedBackend):
    """A :class:`~repro.solvers.base.LPBackend` backed by scipy's HiGHS."""

    name = "highs"

    def __init__(self) -> None:
        super().__init__()
        self._engine: object | None = None
        self._engine_probed = False

    def _get_engine(self) -> "object | None":
        if not self._engine_probed:
            self._engine_probed = True
            from repro.solvers import highs_engine

            if highs_engine.available():
                self._engine = highs_engine.HighsEngine()
        return self._engine

    def _solve(self, problem: LPProblem) -> LPSolution:
        from repro.solvers import highs_engine

        engine = self._get_engine()
        if engine is None:
            return self._solve_linprog(problem)
        assert isinstance(engine, highs_engine.HighsEngine)
        return engine.solve(problem)

    def _solve_batch(self, problems: Sequence[LPProblem]) -> list[LPSolution]:
        from repro.solvers import highs_engine

        engine = self._get_engine()
        if engine is None or len(problems) <= 1:
            return super()._solve_batch(problems)
        assert isinstance(engine, highs_engine.HighsEngine)
        stitched = engine.solve_stitched(problems)
        if stitched is None:
            # The combined model failed (some block infeasible or a
            # solver error): solve sequentially so each block carries
            # its own linprog-identical verdict and diagnostics.
            return super()._solve_batch(problems)
        return stitched

    def _solve_linprog(self, problem: LPProblem) -> LPSolution:
        """Fallback through public ``scipy.optimize.linprog``."""
        from scipy.optimize import linprog

        result = linprog(
            problem.c,
            A_ub=problem.a_ub,
            b_ub=problem.b_ub,
            A_eq=problem.a_eq,
            b_eq=problem.b_eq,
            bounds=problem.bounds,
            method="highs",
        )
        dual_eq = None
        if (
            result.success
            and problem.b_eq is not None
            and getattr(result, "eqlin", None) is not None
        ):
            dual_eq = np.asarray(result.eqlin.marginals, dtype=np.float64)
        x = (
            np.asarray(result.x, dtype=np.float64)
            if result.x is not None
            else np.empty(0, dtype=np.float64)
        )
        return LPSolution(
            success=bool(result.success),
            x=x,
            objective=float(result.fun) if result.fun is not None else 0.0,
            dual_eq=dual_eq,
            iterations=int(getattr(result, "nit", 0) or 0),
            message=str(result.message),
        )
