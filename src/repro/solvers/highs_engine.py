"""A persistent in-process driver for scipy's bundled HiGHS solver.

``scipy.optimize.linprog`` constructs a fresh ``Highs`` object, options
set and CSC copy of the model on *every* call.  The compiler's hot loop
makes hundreds of LP calls per schedule, so this module keeps **one**
``Highs`` instance alive per backend, replicating linprog's exact option
set and model layout so solutions (primal, duals, iteration counts) are
bit-identical to what ``linprog(method="highs")`` returns.  An
:class:`~repro.solvers.base.LPProblem` already is HiGHS' column-wise
layout, so a solve passes its arrays as they are (HiGHS' pointer form of
``passModel``; ``kHighsInf`` is ``inf``, so open sides need no
translation) and reads back the solution, the objective and two
iteration counters.  What is left per call is HiGHS' own cost: on a
5-column, 9-row allocation LP ``run()`` is about four fifths of
:meth:`HighsEngine.solve` (EXPERIMENTS.md "The LP hand-over").

:meth:`HighsEngine.solve_stitched` solves several independent LPs as one
block-diagonal model in a single HiGHS call — the model is the blocks'
arrays concatenated, with row indices and column starts offset — and
de-stitches it into per-block :class:`~repro.solvers.base.LPSolution`
values.  By separability each block's objective value is exactly the
block's own optimum (the block may sit at a different optimal vertex
than a standalone solve would pick — callers that need a specific vertex
solve sequentially).

Everything here degrades gracefully: :func:`available` is False when
scipy (or its private ``_highspy`` layout) is missing, and
:class:`~repro.solvers.scipy_backend.ScipyLinprogBackend` falls back to
plain ``linprog`` calls.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import threading
from importlib.machinery import (
    EXTENSION_SUFFIXES,
    ExtensionFileLoader,
    FileFinder,
)
from typing import Any, Sequence

import numpy as np

from repro.solvers.base import LPProblem, LPSolution, failure_solution

#: The canonical name of scipy's HiGHS pybind11 extension.
_CORE = "scipy.optimize._highspy._core"

#: linprog's message prefix per ``HighsModelStatus`` member name (the
#: table of scipy's own HiGHS wrapper, owned here so a solve need not
#: import ``scipy.optimize``; a test pins the two equal for every
#: member).  A member not listed is "not recognized", as there.
_STATUS_PREFIX = {
    "kNotset": "",
    "kLoadError": "",
    "kModelError": "",
    "kPresolveError": "",
    "kSolveError": "",
    "kPostsolveError": "",
    "kModelEmpty": "",
    "kObjectiveBound": "",
    "kObjectiveTarget": "",
    "kOptimal": "Optimization terminated successfully. ",
    "kTimeLimit": "Time limit reached. ",
    "kIterationLimit": "Iteration limit reached. ",
    "kInfeasible": "The problem is infeasible. ",
    "kUnbounded": "The problem is unbounded. ",
    "kUnboundedOrInfeasible": "The problem is unbounded or infeasible. ",
}

_API: dict[str, Any] | None = None
_UNAVAILABLE = False
_LOAD_LOCK = threading.Lock()


def status_message(model_status: Any, raw: str) -> str:
    """linprog's message text for a HiGHS model status and raw string."""
    prefix = _STATUS_PREFIX.get(
        model_status.name, "The HiGHS status code was not recognized. "
    )
    return f"{prefix}(HiGHS Status {int(model_status)}: {raw})"


def _load_core() -> Any:
    """scipy's HiGHS extension module, without ``import scipy.optimize``.

    ``scipy/optimize/__init__.py`` pulls in ~320 ``scipy.*`` modules to
    hand over one pybind11 extension, so the extension is loaded by file
    path instead — under its canonical name, so that a later real
    ``import scipy.optimize`` (``linprog``, ``milp``, user code) reuses
    this module object rather than initialising pybind11's types twice.
    A layout the loader does not recognise takes the ordinary import.
    """
    loaded = sys.modules.get(_CORE)
    if loaded is not None:
        return loaded
    try:
        scipy = importlib.util.find_spec("scipy")  # imports nothing
        roots = scipy.submodule_search_locations if scipy else None
        for root in roots or ():
            spec = FileFinder(
                os.path.join(root, "optimize", "_highspy"),
                (ExtensionFileLoader, EXTENSION_SUFFIXES),
            ).find_spec(_CORE)
            if spec is not None and spec.loader is not None:
                module = importlib.util.module_from_spec(spec)
                sys.modules[_CORE] = module
                spec.loader.exec_module(module)
                return module
    except Exception:
        sys.modules.pop(_CORE, None)
    from scipy.optimize._highspy import _core

    return _core


def _api() -> dict[str, Any] | None:
    """Lazily load scipy's private HiGHS bindings (None if absent)."""
    global _API, _UNAVAILABLE
    if _API is not None or _UNAVAILABLE:
        return _API
    # The import system's module lock does not cover a load by path,
    # and serve reaches this from ``asyncio.to_thread`` workers.
    with _LOAD_LOCK:
        if _API is None and not _UNAVAILABLE:
            try:
                hc = _load_core()
                _API = {
                    "hc": hc,
                    "simplex_constants": hc.simplex_constants,
                }
            except Exception:  # pragma: no cover - no-scipy CI job
                _UNAVAILABLE = True
    return _API


def available() -> bool:
    """True when the direct HiGHS bindings can be imported."""
    return _api() is not None


class HighsEngine:
    """One persistent ``Highs`` instance with linprog-equivalent options.

    HiGHS chooses the solver itself, as ``linprog(method="highs")``
    does.  Not thread-safe — each backend instance owns its engine.
    """

    def __init__(self) -> None:
        api = _api()
        if api is None:
            raise RuntimeError("scipy HiGHS bindings are not available")
        hc = api["hc"]
        self._hc = hc
        self._highs = hc._Highs()
        self._optimal = hc.HighsModelStatus.kOptimal
        self._colwise = int(hc.MatrixFormat.kColwise)
        self._minimize = int(hc.ObjSense.kMinimize)
        self._optimal_message = status_message(
            self._optimal, self._highs.modelStatusToString(self._optimal)
        )
        # Replicate linprog's effective option set exactly (bools that
        # HiGHS models as strings, the dual-simplex strategy default,
        # silenced logging).
        options = hc.HighsOptions()
        options.presolve = "on"
        options.highs_debug_level = hc.HighsDebugLevel.kHighsDebugLevelNone
        options.log_to_console = False
        options.output_flag = False
        options.simplex_strategy = (
            api["simplex_constants"].SimplexStrategy.kSimplexStrategyDual
        )
        self._highs.passOptions(options)

    # -- model hand-over -----------------------------------------------

    def _pass_model(self, problems: Sequence[LPProblem]) -> None:
        """Hand HiGHS one problem, or several as one block-diagonal model.

        An :class:`LPProblem` already is HiGHS' column-wise layout, so a
        single problem passes its arrays as they are and stitching is
        concatenation, each block's row indices and column starts
        shifted by the rows and entries before it.
        """
        if len(problems) == 1:
            (one,) = problems
            c, bounds = one.c, one.bounds
            start, index, value = one.start, one.index, one.value
            row_lower, row_upper = one.row_lower, one.row_upper
        else:
            starts, indices = [np.zeros(1, dtype=np.int32)], []
            nnz = rows = 0
            for problem in problems:
                starts.append(problem.start[1:] + nnz)
                indices.append(problem.index + rows)
                nnz += problem.value.size
                rows += problem.row_upper.size
            c = np.concatenate([p.c for p in problems])
            bounds = np.concatenate([p.bounds for p in problems])
            start, index = np.concatenate(starts), np.concatenate(indices)
            value = np.concatenate([p.value for p in problems])
            row_lower = np.concatenate([p.row_lower for p in problems])
            row_upper = np.concatenate([p.row_upper for p in problems])
        self._highs.clearModel()
        self._highs.clearSolver()
        # HiGHS' pointer form: sizes, column-wise format, minimise with
        # no offset, the arrays, every column continuous.
        self._highs.passModel(
            c.size, row_upper.size, value.size, self._colwise,
            self._minimize, 0.0, c, bounds[:, 0], bounds[:, 1],
            row_lower, row_upper, start, index, value,
            np.zeros(c.size, dtype=np.int32),
        )

    def _run(self) -> tuple[bool, str, int]:
        highs = self._highs
        highs.run()
        model_status = highs.getModelStatus()
        iterations = max(
            highs.getInfoValue("simplex_iteration_count")[1],
            highs.getInfoValue("ipm_iteration_count")[1],
            0,
        )
        if model_status == self._optimal:
            return True, self._optimal_message, iterations
        # scipy's wrapper adds the primal status to a failure's text.
        primal = highs.getInfoValue("primal_solution_status")[1]
        raw = (
            f"model_status is {highs.modelStatusToString(model_status)}; "
            f"primal_status is {highs.solutionStatusToString(primal)}"
        )
        return False, status_message(model_status, raw), iterations

    # -- solves ----------------------------------------------------------

    def solve(self, problem: LPProblem) -> LPSolution:
        """Solve one problem; bit-identical to linprog."""
        self._pass_model((problem,))
        ok, message, iterations = self._run()
        if not ok:
            return failure_solution(message, iterations)
        solution = self._highs.getSolution()
        duals = np.array(solution.row_dual, dtype=np.float64)
        return LPSolution(
            success=True,
            x=np.array(solution.col_value, dtype=np.float64),
            objective=self._highs.getObjectiveValue(),
            dual_eq=duals[problem.num_ub :],
            iterations=iterations,
            message=message,
        )

    def solve_stitched(
        self, problems: Sequence[LPProblem]
    ) -> list[LPSolution] | None:
        """Solve independent problems as one block-diagonal model.

        Returns per-block solutions (primal slice, equality duals,
        per-block objective recomputed as ``c_i @ x_i``), or ``None``
        when the combined model is not optimal — the caller then falls
        back to sequential solves so the failing block is identified
        with linprog-identical diagnostics.
        """
        self._pass_model(problems)
        ok, message, iterations = self._run()
        if not ok:
            return None
        solution = self._highs.getSolution()
        x_all = np.array(solution.col_value, dtype=np.float64)
        dual_all = np.array(solution.row_dual, dtype=np.float64)
        out: list[LPSolution] = []
        col = row = 0
        for problem in problems:
            n, m = problem.c.size, problem.row_upper.size
            x = x_all[col : col + n]
            out.append(
                LPSolution(
                    success=True,
                    x=x,
                    objective=float(problem.c @ x),
                    dual_eq=dual_all[row + problem.num_ub : row + m],
                    # Iterations are a property of the combined solve;
                    # attribute them to the first block so tallies sum
                    # to the true count.
                    iterations=iterations if not out else 0,
                    message=message,
                )
            )
            col += n
            row += m
        return out
