"""A persistent in-process driver for scipy's bundled HiGHS solver.

``scipy.optimize.linprog`` constructs a fresh ``Highs`` object, options
set and CSC copy of the model on *every* call — measured at ~2.25 ms per
call inside the compile pipeline, of which the actual simplex solve is
~0.4 ms.  The compiler's hot loop makes hundreds of LP calls per
schedule, so this module keeps **one** ``Highs`` instance alive per
backend and passes models to it directly, replicating linprog's exact
option set and model layout so solutions (primal, duals, iteration
counts) are bit-identical to what ``linprog(method="highs")`` returns.

On top of the single-solve path, :meth:`HighsEngine.solve_stitched`
solves several independent LPs stitched into one block-diagonal model in
a single HiGHS call and de-stitches them into per-block
:class:`~repro.solvers.base.LPSolution` values.  By separability each
block's objective value is exactly the block's own optimum (the block
may sit at a different optimal vertex than a standalone solve would
pick — callers that need a specific vertex solve sequentially).

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
                    "inf": float(hc.kHighsInf),
                }
            except Exception:  # pragma: no cover - no-scipy CI job
                _UNAVAILABLE = True
    return _API


def available() -> bool:
    """True when the direct HiGHS bindings can be imported."""
    return _api() is not None


def _structure_signature(problem: LPProblem) -> tuple[int, int, int]:
    """(columns, ub rows, eq rows) of a problem."""
    m_ub = 0 if problem.b_ub is None else len(problem.b_ub)
    m_eq = 0 if problem.b_eq is None else len(problem.b_eq)
    return (problem.num_variables, m_ub, m_eq)


def _block_coo(
    problem: LPProblem, row_offset: int, col_offset: int, m_ub_local: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """COO triplets of one problem's stacked [A_ub; A_eq] block, with
    the ub rows first (linprog's row order) and global offsets applied."""
    parts_r: list[np.ndarray] = []
    parts_c: list[np.ndarray] = []
    parts_v: list[np.ndarray] = []
    if problem.a_ub is not None:
        r, c, v = problem.a_ub.coo()
        parts_r.append(r + row_offset)
        parts_c.append(c + col_offset)
        parts_v.append(v)
    if problem.a_eq is not None:
        r, c, v = problem.a_eq.coo()
        parts_r.append(r + row_offset + m_ub_local)
        parts_c.append(c + col_offset)
        parts_v.append(v)
    if not parts_r:
        empty_i = np.empty(0, dtype=np.int64)
        return empty_i, empty_i, np.empty(0, dtype=np.float64)
    return (
        np.concatenate(parts_r),
        np.concatenate(parts_c),
        np.concatenate(parts_v),
    )


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
        self._inf = api["inf"]
        self._highs = hc._Highs()
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

    # -- model assembly ------------------------------------------------

    def _pass_model(
        self,
        c: np.ndarray,
        bounds: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
        lhs: np.ndarray,
        rhs: np.ndarray,
    ) -> None:
        hc = self._hc
        num_col = int(c.size)
        num_row = int(rhs.size)
        # CSC layout (sorted by column, then row), int32 indices — the
        # same canonical structure scipy's csc_array hands linprog.
        order = np.lexsort((rows, cols))
        csc_rows = rows[order].astype(np.int32)
        csc_vals = values[order]
        counts = np.bincount(cols, minlength=num_col)
        indptr = np.zeros(num_col + 1, dtype=np.int32)
        indptr[1:] = np.cumsum(counts)
        lb = np.where(np.isinf(bounds[:, 0]), -self._inf, bounds[:, 0])
        ub = np.where(np.isinf(bounds[:, 1]), self._inf, bounds[:, 1])
        lhs = np.where(np.isneginf(lhs), -self._inf, lhs)
        rhs = np.where(np.isposinf(rhs), self._inf, rhs)
        lp = hc.HighsLp()
        lp.num_col_ = num_col
        lp.num_row_ = num_row
        lp.a_matrix_.num_col_ = num_col
        lp.a_matrix_.num_row_ = num_row
        lp.a_matrix_.format_ = hc.MatrixFormat.kColwise
        lp.col_cost_ = c
        lp.col_lower_ = lb
        lp.col_upper_ = ub
        lp.row_lower_ = lhs
        lp.row_upper_ = rhs
        lp.a_matrix_.start_ = indptr
        lp.a_matrix_.index_ = csc_rows
        lp.a_matrix_.value_ = csc_vals
        self._highs.clearModel()
        self._highs.clearSolver()
        self._highs.passModel(lp)

    def _run(self) -> tuple[bool, Any, str, int]:
        highs = self._highs
        highs.run()
        model_status = highs.getModelStatus()
        ok = model_status == self._hc.HighsModelStatus.kOptimal
        info = highs.getInfo()
        # Compose the raw message the way scipy's wrapper does (plain
        # status string on success, status+primal detail otherwise) so
        # the scipy-level translation yields linprog's exact text.
        if ok:
            raw = highs.modelStatusToString(model_status)
        else:
            raw = (
                "model_status is "
                f"{highs.modelStatusToString(model_status)}; "
                "primal_status is "
                f"{highs.solutionStatusToString(info.primal_solution_status)}"
            )
        message = status_message(model_status, raw)
        iterations = max(
            int(info.simplex_iteration_count), int(info.ipm_iteration_count)
        )
        return ok, info, message, max(iterations, 0)

    # -- single solve --------------------------------------------------

    def solve(self, problem: LPProblem) -> LPSolution:
        """Solve one canonical problem; bit-identical to linprog."""
        _, m_ub, m_eq = _structure_signature(problem)
        rows, cols, values = _block_coo(problem, 0, 0, m_ub)
        lhs = np.concatenate(
            (
                np.full(m_ub, -np.inf),
                np.empty(0) if problem.b_eq is None else problem.b_eq,
            )
        )
        rhs = np.concatenate(
            (
                np.empty(0) if problem.b_ub is None else problem.b_ub,
                np.empty(0) if problem.b_eq is None else problem.b_eq,
            )
        )
        self._pass_model(
            np.asarray(problem.c, dtype=np.float64),
            problem.bounds,
            rows,
            cols,
            values,
            lhs,
            rhs,
        )
        ok, info, message, iterations = self._run()
        if not ok:
            return failure_solution(message, iterations)
        solution = self._highs.getSolution()
        x = np.array(solution.col_value, dtype=np.float64)
        dual_rows = np.array(solution.row_dual, dtype=np.float64)
        return LPSolution(
            success=True,
            x=x,
            objective=float(info.objective_function_value),
            dual_eq=dual_rows[m_ub:] if m_eq else np.empty(0),
            iterations=iterations,
            message=message,
        )

    # -- stitched batch solve ------------------------------------------

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
        col_offsets: list[int] = []
        row_offsets: list[int] = []
        signatures = [_structure_signature(p) for p in problems]
        col_base = row_base = 0
        for n, m_ub, m_eq in signatures:
            col_offsets.append(col_base)
            row_offsets.append(row_base)
            col_base += n
            row_base += m_ub + m_eq
        rows_parts: list[np.ndarray] = []
        cols_parts: list[np.ndarray] = []
        vals_parts: list[np.ndarray] = []
        lhs_parts: list[np.ndarray] = []
        rhs_parts: list[np.ndarray] = []
        for problem, (n, m_ub, m_eq), c_off, r_off in zip(
            problems, signatures, col_offsets, row_offsets
        ):
            r, c, v = _block_coo(problem, r_off, c_off, m_ub)
            rows_parts.append(r)
            cols_parts.append(c)
            vals_parts.append(v)
            if m_ub:
                lhs_parts.append(np.full(m_ub, -np.inf))
                rhs_parts.append(np.asarray(problem.b_ub, dtype=np.float64))
            if m_eq:
                b_eq = np.asarray(problem.b_eq, dtype=np.float64)
                lhs_parts.append(b_eq)
                rhs_parts.append(b_eq)
        c_all = np.concatenate(
            [np.asarray(p.c, dtype=np.float64) for p in problems]
        )
        bounds_all = np.concatenate([p.bounds for p in problems])
        self._pass_model(
            c_all,
            bounds_all,
            np.concatenate(rows_parts) if rows_parts else np.empty(0, np.int64),
            np.concatenate(cols_parts) if cols_parts else np.empty(0, np.int64),
            np.concatenate(vals_parts) if vals_parts else np.empty(0),
            np.concatenate(lhs_parts) if lhs_parts else np.empty(0),
            np.concatenate(rhs_parts) if rhs_parts else np.empty(0),
        )
        ok, info, message, iterations = self._run()
        if not ok:
            return None
        solution = self._highs.getSolution()
        x_all = np.array(solution.col_value, dtype=np.float64)
        dual_all = np.array(solution.row_dual, dtype=np.float64)
        out: list[LPSolution] = []
        for problem, (n, m_ub, m_eq), c_off, r_off in zip(
            problems, signatures, col_offsets, row_offsets
        ):
            x = x_all[c_off : c_off + n]
            duals = dual_all[r_off + m_ub : r_off + m_ub + m_eq]
            out.append(
                LPSolution(
                    success=True,
                    x=x,
                    objective=float(
                        np.asarray(problem.c, dtype=np.float64) @ x
                    ),
                    dual_eq=duals if m_eq else np.empty(0),
                    # Iterations are a property of the combined solve;
                    # attribute them to the first block so tallies sum
                    # to the true count.
                    iterations=iterations if not out else 0,
                    message=message,
                )
            )
        return out
