"""The LP backend contract shared by every solver implementation.

The scheduled-routing compiler solves two families of linear programs —
the message-interval allocation LP (paper constraints (3)-(4)) and the
link-feasible-set packing LP of interval scheduling (Section 5.3).  Both
families are *sparse* (a coefficient per (message, interval) membership,
not per matrix cell) and arrive in *batches* (one packing LP per active
interval of a schedule), so the contract is sparse-first and batch-aware:

- :class:`LPProblem` is one layout from assembly to HiGHS: a column-wise
  matrix over the stacked rows ``[A_ub; A_eq]`` with its row bounds,
  the arrays HiGHS consumes.  The compiler's two LP stages emit it
  directly; :class:`LPProblemBuilder` (COO triplets) and
  :meth:`LPProblem.from_dense` sort and sum duplicates into it once.
  Its constructor refuses non-finite data, naming the field, and its
  dense views (``a_ub``/``a_eq``) serve the dense consumers;
- :class:`LPSolution` is the uniform result: primal point and equality
  duals as **read-only numpy arrays**, iteration count and wall time;
- :class:`LPBackend` adds one capability beyond single
  :meth:`~LPBackend.solve` calls: :meth:`~LPBackend.solve_batch` (a
  backend may stitch independent problems into one block-diagonal solve
  and de-stitch the primal/dual blocks);
- :class:`SolverTally` accumulates per-backend statistics — including
  batch counters — that the compiler stages copy into
  their stage detail (and hence into ``compile``-category trace
  events).

:data:`LP_TOL` is the single numerical feasibility tolerance shared by
both LP stages and every backend; :func:`exceeds_tolerance` is the one
place its comparison semantics live.
"""

from __future__ import annotations

import math
import time
from dataclasses import astuple, dataclass, field, replace
from typing import Any, Protocol, Sequence, runtime_checkable

import numpy as np

#: Numerical tolerance shared by the allocation and scheduling LP stages
#: (and every backend's feasibility checks).  A quantity "exceeds" a
#: limit only beyond ``LP_TOL`` relative slack — see
#: :func:`exceeds_tolerance`; anything inside the band is solver rounding
#: and is clamped, not rejected.
LP_TOL = 1e-7


def exceeds_tolerance(value: float, limit: float) -> bool:
    """True when ``value`` exceeds ``limit`` beyond the shared tolerance.

    The band is relative for limits above 1 and absolute below
    (``LP_TOL * max(1, |limit|)``), matching the historical behaviour of
    both LP stages.  Values inside the band are treated as equal to the
    limit: the allocation stage accepts load factors up to
    ``1 + LP_TOL`` and the scheduling stage rescales packings that
    overshoot the interval by at most ``LP_TOL * interval_length``.
    """
    return value > limit + LP_TOL * max(1.0, abs(limit))


def as_bounds_array(bounds: Any, num_variables: int) -> np.ndarray:
    """Canonicalize variable bounds to an ``(n, 2)`` float array.

    Accepts ``None`` (all variables in ``[0, +inf)``), a sequence of
    ``(low, high)`` pairs where ``high`` (or ``low``) may be ``None``
    for unbounded, or an already-canonical ``(n, 2)`` array.  Unbounded
    sides become ``±numpy.inf``.
    """
    if bounds is None:
        out = np.zeros((num_variables, 2), dtype=np.float64)
        out[:, 1] = np.inf
        return out
    if isinstance(bounds, np.ndarray) and bounds.ndim == 2:
        return np.asarray(bounds, dtype=np.float64)
    out = np.empty((num_variables, 2), dtype=np.float64)
    for j, (low, high) in enumerate(bounds):
        out[j, 0] = -np.inf if low is None else float(low)
        out[j, 1] = np.inf if high is None else float(high)
    return out


class LPProblem:
    """One linear program, in the column-wise layout HiGHS consumes.

    ``minimise c @ x  s.t.  row_lower <= A x <= row_upper,
    bounds[:, 0] <= x <= bounds[:, 1]``, where ``A`` stacks the
    ``num_ub`` inequality rows over the equality rows (``[A_ub; A_eq]``)
    and is stored compressed by column: column ``j``'s entries are
    ``value[start[j]:start[j + 1]]`` in rows ``index[start[j]:start[j + 1]]``,
    rows ascending, each (row, column) once, ``int32`` indices.  An
    inequality row has ``row_lower = -inf`` and ``row_upper = b_ub``; an
    equality row has both at ``b_eq``.

    The constructor takes the layout as given and only refuses
    non-finite data, naming the field: NaN anywhere, ``±inf`` in ``c``,
    in the matrix or in ``b_eq``, a lower bound of ``+inf`` or an upper
    bound of ``-inf``.  ``+inf`` in ``b_ub`` and open bounds stay legal.
    :class:`LPProblemBuilder` (COO triplets) and :meth:`from_dense` sort
    and sum duplicates into the layout.

    :attr:`a_ub`/:attr:`a_eq` (and :attr:`b_ub`/:attr:`b_eq`) are
    derived dense views for the dense consumers: the reference simplex,
    Farkas certificates and the ``linprog`` fallback.
    """

    __slots__ = (
        "c", "bounds", "start", "index", "value",
        "row_lower", "row_upper", "num_ub",
    )

    def __init__(
        self,
        c: np.ndarray,
        bounds: np.ndarray,
        start: np.ndarray,
        index: np.ndarray,
        value: np.ndarray,
        row_lower: np.ndarray,
        row_upper: np.ndarray,
        num_ub: int,
    ) -> None:
        self.c = c
        self.bounds = bounds
        self.start = start
        self.index = index
        self.value = value
        self.row_lower = row_lower
        self.row_upper = row_upper
        self.num_ub = num_ub
        # A sum is finite when every entry is (a NaN propagates, ±inf
        # stays inf or turns NaN); the field-by-field pass forgives an
        # overflowing sum and names the field of a real offence.
        b_ub, b_eq = row_upper[:num_ub], row_upper[num_ub:]
        lower, upper = bounds[:, 0], bounds[:, 1]
        total = np.add.reduce
        if (
            math.isfinite(total(c) + total(value) + total(b_eq))
            and not math.isnan(total(b_ub))
            and total(lower) < math.inf
            and total(upper) > -math.inf
        ):
            return
        for field, bad, what in (
            ("c", ~np.isfinite(c), "a NaN or infinite entry"),
            ("the matrix", ~np.isfinite(value), "a NaN or infinite entry"),
            ("b_eq", ~np.isfinite(b_eq), "a NaN or infinite entry"),
            ("b_ub", np.isnan(b_ub), "a NaN entry"),
            ("bounds", np.isnan(bounds), "a NaN entry"),
            ("bounds", lower == math.inf, "a lower bound of +inf"),
            ("bounds", upper == -math.inf, "an upper bound of -inf"),
        ):
            if bad.any():
                raise ValueError(f"LPProblem: {field} has {what}")

    @classmethod
    def from_dense(
        cls,
        c: Any,
        a_ub: Any = None,
        b_ub: Any = None,
        a_eq: Any = None,
        b_eq: Any = None,
        bounds: Any = None,
    ) -> "LPProblem":
        """The layout of dense data (zeros are dropped)."""
        c_arr = np.array(c, dtype=np.float64).ravel()
        n = c_arr.size
        blocks = [
            np.asarray(a, dtype=np.float64).reshape(-1, n)
            for a in (a_ub, a_eq) if a is not None
        ]
        stacked = np.vstack(blocks) if blocks else np.zeros((0, n))
        rows, cols = np.nonzero(stacked)
        b_ub, b_eq = (
            np.empty(0) if a is None else np.asarray(b, np.float64).ravel()
            for a, b in ((a_ub, b_ub), (a_eq, b_eq))
        )
        return _from_coo(
            c_arr, as_bounds_array(bounds, n),
            rows, cols, stacked[rows, cols], b_ub, b_eq,
        )

    @property
    def num_variables(self) -> int:
        return self.c.size

    @property
    def num_constraints(self) -> int:
        return self.row_upper.size

    @property
    def b_ub(self) -> np.ndarray | None:
        return self.row_upper[: self.num_ub] if self.num_ub else None

    @property
    def b_eq(self) -> np.ndarray | None:
        num_eq = self.row_upper.size - self.num_ub
        return self.row_upper[self.num_ub :] if num_eq else None

    @property
    def a_ub(self) -> np.ndarray | None:
        """``A_ub`` as a dense array (``None`` without inequality rows)."""
        return self._dense_rows(0, self.num_ub)

    @property
    def a_eq(self) -> np.ndarray | None:
        """``A_eq`` as a dense array (``None`` without equality rows)."""
        return self._dense_rows(self.num_ub, self.row_upper.size)

    def _dense_rows(self, first: int, last: int) -> np.ndarray | None:
        if last == first:
            return None
        n = self.c.size
        cols = np.repeat(np.arange(n), np.diff(self.start))
        rows = self.index.astype(np.int64)
        mine = (rows >= first) & (rows < last)
        out = np.zeros((last - first, n), dtype=np.float64)
        out[rows[mine] - first, cols[mine]] = self.value[mine]
        return out

    def __repr__(self) -> str:
        return (
            f"<LPProblem {self.c.size} columns, {self.num_ub} <= rows, "
            f"{self.row_upper.size - self.num_ub} = rows, "
            f"nnz={self.value.size}>"
        )


def _from_coo(
    c: np.ndarray,
    bounds: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray,
    b_ub: np.ndarray,
    b_eq: np.ndarray,
) -> LPProblem:
    """Sort COO triplets over ``[A_ub; A_eq]`` column-wise, summing
    duplicates (standard COO semantics), into an :class:`LPProblem`."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    n, num_ub = c.size, b_ub.size
    if rows.size:
        if int(cols.min()) < 0 or int(cols.max()) >= n:
            raise ValueError("COO column index out of range")
        order = np.lexsort((rows, cols))
        rows, cols, values = rows[order], cols[order], values[order]
        fresh = np.empty(rows.size, dtype=bool)
        fresh[0] = True
        fresh[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        firsts = np.flatnonzero(fresh)
        values = np.add.reduceat(values, firsts)
        rows, cols = rows[firsts], cols[firsts]
    start = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols, minlength=n), out=start[1:])
    return LPProblem(
        c=c,
        bounds=bounds,
        start=start,
        index=rows.astype(np.int32),
        value=values,
        row_lower=np.concatenate((np.full(num_ub, -np.inf), b_eq)),
        row_upper=np.concatenate((b_ub, b_eq)),
        num_ub=num_ub,
    )


class LPProblemBuilder:
    """Assemble an :class:`LPProblem` from COO triplets, vectorized.

    The builder is append-only: allocate constraint rows with
    :meth:`add_eq_rows` (optionally passing the block's triplets in the
    same call) / :meth:`add_ub_rows`, scatter ``<=`` coefficients with
    :meth:`add_ub_entries`, then :meth:`build`.
    All index/value arguments are numpy arrays (or array-likes); no
    per-coefficient Python loop runs anywhere.

    >>> b = LPProblemBuilder(3)
    >>> b.set_objective([2], [1.0])
    >>> _ = b.add_eq_rows([1.0], rows=[0, 0], cols=[0, 1], values=[1, 1])
    >>> problem = b.build()
    """

    def __init__(self, num_variables: int) -> None:
        self._n = int(num_variables)
        self._c = np.zeros(self._n, dtype=np.float64)
        self._lower = np.zeros(self._n, dtype=np.float64)
        self._upper = np.full(self._n, np.inf, dtype=np.float64)
        # Triplets per system; a row index is relative to its system.
        self._triplets: dict[str, list[tuple[np.ndarray, ...]]] = {
            "ub": [], "eq": [],
        }
        self._rhs: dict[str, list[np.ndarray]] = {"ub": [], "eq": []}
        self._rows = {"ub": 0, "eq": 0}

    def set_objective(self, cols: Any, values: Any) -> None:
        """Scatter objective coefficients (``c[cols] = values``)."""
        self._c[np.asarray(cols, dtype=np.int64)] = np.asarray(
            values, dtype=np.float64
        )

    def set_objective_vector(self, c: Any) -> None:
        """Replace the whole objective vector."""
        c_arr = np.asarray(c, dtype=np.float64)
        if c_arr.size != self._n:
            raise ValueError("objective length mismatch")
        self._c = c_arr.copy()

    def set_lower(self, cols: Any, values: Any) -> None:
        """Set variable lower bounds (scattered; default is 0)."""
        self._lower[np.asarray(cols, dtype=np.int64)] = np.asarray(
            values, dtype=np.float64
        )

    def set_upper(self, cols: Any, values: Any) -> None:
        """Set variable upper bounds (scattered; default is ``+inf``)."""
        self._upper[np.asarray(cols, dtype=np.int64)] = np.asarray(
            values, dtype=np.float64
        )

    def add_eq_rows(
        self,
        rhs: Any,
        rows: Any = None,
        cols: Any = None,
        values: Any = None,
    ) -> int:
        """Allocate a block of equality rows; returns the base row index.

        ``rhs`` sets the block's right-hand sides.  When triplets are
        given, their ``rows`` are **relative to the new block**.
        """
        base = self._allocate("eq", rhs)
        if rows is not None:
            self._append(
                "eq", np.asarray(rows, dtype=np.int64) + base, cols, values
            )
        return base

    def add_ub_rows(self, rhs: Any) -> int:
        """Allocate a block of ``<=`` rows; returns the base row index.
        :meth:`add_ub_entries` fills them."""
        return self._allocate("ub", rhs)

    def add_ub_entries(self, rows: Any, cols: Any, values: Any) -> None:
        """COO entries into already-allocated ``<=`` rows (absolute
        row indices)."""
        self._append("ub", np.asarray(rows, dtype=np.int64), cols, values)

    def _allocate(self, system: str, rhs: Any) -> int:
        base = self._rows[system]
        rhs_arr = np.atleast_1d(np.asarray(rhs, dtype=np.float64))
        self._rhs[system].append(rhs_arr)
        self._rows[system] += rhs_arr.size
        return base

    def _append(
        self, system: str, rows: np.ndarray, cols: Any, values: Any
    ) -> None:
        cols_arr = np.asarray(cols, dtype=np.int64).ravel()
        vals_arr = np.asarray(values, dtype=np.float64).ravel()
        rows = rows.ravel()
        if not (rows.size == cols_arr.size == vals_arr.size):
            raise ValueError("COO triplet arrays must have equal length")
        self._triplets[system].append((rows, cols_arr, vals_arr))

    def build(self) -> LPProblem:
        """The :class:`LPProblem`: equality rows follow the ``<=`` rows."""
        shift = {"ub": 0, "eq": self._rows["ub"]}
        parts = []
        for system in ("ub", "eq"):
            for rows, cols, vals in self._triplets[system]:
                if rows.size and not (
                    0 <= rows.min() and rows.max() < self._rows[system]
                ):
                    raise ValueError("COO row index out of range")
                parts.append((rows + shift[system], cols, vals))
        rows, cols, vals = (
            [np.concatenate(column) for column in zip(*parts)]
            if parts
            else (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))
        )
        b_ub, b_eq = (
            np.concatenate(self._rhs[system])
            if self._rhs[system]
            else np.empty(0)
            for system in ("ub", "eq")
        )
        return _from_coo(
            self._c,
            np.column_stack((self._lower, self._upper)),
            rows, cols, vals, b_ub, b_eq,
        )


def _readonly(values: Any) -> np.ndarray:
    """A read-only float64 view of ``values`` (no copy when possible)."""
    array = np.asarray(values, dtype=np.float64)
    view = array.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True, eq=False)
class LPSolution:
    """Uniform result shape returned by every backend.

    Attributes
    ----------
    success:
        True when an optimal feasible point was found.
    x:
        The primal solution as a **read-only numpy array** (empty on
        failure).
    objective:
        Objective value at ``x``.
    dual_eq:
        Dual values (sensitivities ``df/db``) of the equality
        constraints, in row order, as a read-only numpy array — the
        column-generation pricer's weights.  ``None`` when the backend
        cannot provide them.
    iterations:
        Simplex/IPM iterations the solver reported.
    wall_ms:
        Wall-clock solve time, stamped by :class:`TalliedBackend`.
        Solutions from one batched solve share the batch's wall time
        evenly.
    message:
        Backend diagnostic (failure reason).
    """

    success: bool
    x: np.ndarray
    objective: float
    dual_eq: np.ndarray | None
    iterations: int
    wall_ms: float = 0.0
    message: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", _readonly(self.x))
        if self.dual_eq is not None:
            object.__setattr__(self, "dual_eq", _readonly(self.dual_eq))


@dataclass
class SolverTally:
    """Accumulated statistics of one backend instance's solves.

    ``solves`` counts *logical* LPs (a batched call contributes one per
    stitched block); ``batches``/``batched_solves`` count
    :meth:`LPBackend.solve_batch` calls and the problems they carried.
    """

    solves: int = 0
    iterations: int = 0
    wall_ms: float = 0.0
    failures: int = 0
    max_variables: int = 0
    max_constraints: int = 0
    batches: int = 0
    batched_solves: int = 0

    def record(self, problem: LPProblem, solution: LPSolution) -> None:
        self.solves += 1
        self.iterations += solution.iterations
        self.wall_ms += solution.wall_ms
        if not solution.success:
            self.failures += 1
        self.max_variables = max(self.max_variables, problem.num_variables)
        self.max_constraints = max(
            self.max_constraints, problem.num_constraints
        )

    def record_batch(self, num_problems: int) -> None:
        self.batches += 1
        self.batched_solves += num_problems

    def as_dict(self) -> dict[str, float | int]:
        """The ``solver_stats`` members (less ``backend``), in order."""
        return {
            "lp_solves": self.solves,
            "lp_iterations": self.iterations,
            "lp_wall_ms": round(self.wall_ms, 3),
            "lp_failures": self.failures,
            "lp_batches": self.batches,
            "lp_batched_solves": self.batched_solves,
            "max_variables": self.max_variables,
            "max_constraints": self.max_constraints,
        }

    def since(self, earlier: "SolverTally") -> dict[str, float | int]:
        """Stage-detail dict of the activity since ``earlier`` (a
        ``dataclasses.replace`` copy); the maxima do not difference."""
        moved = SolverTally(
            *(now - then for now, then in zip(astuple(self), astuple(earlier)))
        ).as_dict()
        return {
            key: moved[key]
            for key in ("lp_solves", "lp_iterations", "lp_wall_ms",
                        "lp_batches", "lp_batched_solves")
        }


@runtime_checkable
class LPBackend(Protocol):
    """What the compiler stages require of an LP solver."""

    name: str
    tally: SolverTally

    def solve(
        self, problem: LPProblem, warm_start: object = None
    ) -> LPSolution:  # pragma: no cover
        ...

    def solve_batch(
        self, problems: Sequence[LPProblem], warm_starts: object = None
    ) -> list[LPSolution]:  # pragma: no cover
        ...


class TalliedBackend:
    """Base class giving concrete backends timing and statistics.

    Subclasses implement :meth:`_solve` (and optionally
    :meth:`_solve_batch`; the default solves sequentially);
    :meth:`solve` / :meth:`solve_batch` wrap them with wall-clock
    measurement and :class:`SolverTally` bookkeeping.
    """

    name = "abstract"

    def __init__(self) -> None:
        self.tally = SolverTally()

    def solve(
        self, problem: LPProblem, warm_start: object = None
    ) -> LPSolution:
        """Inert keyword: the e2e ``TracedBackend`` forwards it (ROADMAP 1b)."""
        start = time.perf_counter()
        solution = self._solve(problem)
        wall_ms = (time.perf_counter() - start) * 1000.0
        solution = replace(solution, wall_ms=wall_ms)
        self.tally.record(problem, solution)
        return solution

    def solve_batch(
        self, problems: Sequence[LPProblem], warm_starts: object = None
    ) -> list[LPSolution]:
        """Inert keyword: the e2e ``TracedBackend`` forwards it (ROADMAP 1b)."""
        start = time.perf_counter()
        solutions = self._solve_batch(problems)
        wall_ms = (time.perf_counter() - start) * 1000.0
        share = wall_ms / len(problems) if problems else 0.0
        stamped: list[LPSolution] = []
        for problem, solution in zip(problems, solutions):
            solution = replace(solution, wall_ms=share)
            self.tally.record(problem, solution)
            stamped.append(solution)
        self.tally.record_batch(len(problems))
        return stamped

    def _solve(self, problem: LPProblem) -> LPSolution:
        raise NotImplementedError

    def _solve_batch(self, problems: Sequence[LPProblem]) -> list[LPSolution]:
        """Sequential fallback; backends with a real batched path
        (block-diagonal stitching) override this."""
        return [self._solve(problem) for problem in problems]

    def __repr__(self) -> str:
        return f"<LPBackend {self.name}: {self.tally.solves} solves>"


def failure_solution(message: str, iterations: int = 0) -> LPSolution:
    """The uniform failed-solve result (shared by backends)."""
    return LPSolution(
        success=False,
        x=np.empty(0, dtype=np.float64),
        objective=0.0,
        dual_eq=None,
        iterations=iterations,
        message=message,
    )
