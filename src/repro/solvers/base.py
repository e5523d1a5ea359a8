"""The LP backend contract shared by every solver implementation.

The scheduled-routing compiler solves two families of linear programs —
the message-interval allocation LP (paper constraints (3)-(4)) and the
link-feasible-set packing LP of interval scheduling (Section 5.3).  Both
families are *sparse* (a coefficient per (message, interval) membership,
not per matrix cell) and arrive in *batches* (one packing LP per active
interval of a schedule), so the contract is sparse-first and batch-aware:

- :class:`LPProblemBuilder` assembles constraints in COO triplet form —
  numpy index/value arrays, no per-coefficient Python loops — and
  produces a canonical :class:`LPProblem`;
- :class:`LPProblem` carries its constraint matrices as
  :class:`CSRMatrix` (a numpy-only compressed-sparse-row container with
  a :meth:`CSRMatrix.to_dense` adapter for dense solvers such as the
  pure-Python reference simplex);
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

Problems handed to ``solve()``/``solve_batch()`` must be **canonical**
(sparse matrices, array bounds).  The one-release dense-field
deprecation shim has expired: passing dense matrix fields now raises
``ValueError``.  Assemble through :class:`LPProblemBuilder`, or convert
explicitly with :meth:`LPProblem.from_dense` when dense data is what a
caller naturally holds.

:data:`LP_TOL` is the single numerical feasibility tolerance shared by
both LP stages and every backend; :func:`exceeds_tolerance` is the one
place its comparison semantics live.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
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


class CSRMatrix:
    """A numpy-only compressed-sparse-row matrix.

    Deliberately not :mod:`scipy.sparse`: the data contract of
    :class:`LPProblem` must work in scipy-free environments (the
    reference simplex exists exactly for those), so the container keeps
    plain numpy arrays in standard CSR layout — ``data``/``indices``
    per stored entry, ``indptr`` of length ``rows + 1`` — with ``int32``
    indices (what HiGHS consumes natively).
    """

    __slots__ = ("data", "indices", "indptr", "shape")

    def __init__(
        self,
        data: np.ndarray,
        indices: np.ndarray,
        indptr: np.ndarray,
        shape: tuple[int, int],
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.indices = np.asarray(indices, dtype=np.int32)
        self.indptr = np.asarray(indptr, dtype=np.int32)
        self.shape = (int(shape[0]), int(shape[1]))

    @classmethod
    def from_coo(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
        shape: tuple[int, int],
    ) -> "CSRMatrix":
        """Build from COO triplets, fully vectorized.

        Entries are sorted to canonical (row, col) order and duplicate
        coordinates are **summed** (standard COO semantics).
        """
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        values = np.asarray(values, dtype=np.float64).ravel()
        if not (rows.size == cols.size == values.size):
            raise ValueError("COO triplet arrays must have equal length")
        n_rows, n_cols = int(shape[0]), int(shape[1])
        if rows.size:
            if int(rows.min()) < 0 or int(rows.max()) >= n_rows:
                raise ValueError("COO row index out of range")
            if int(cols.min()) < 0 or int(cols.max()) >= n_cols:
                raise ValueError("COO column index out of range")
            order = np.lexsort((cols, rows))
            rows, cols, values = rows[order], cols[order], values[order]
            fresh = np.empty(rows.size, dtype=bool)
            fresh[0] = True
            fresh[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
            starts = np.flatnonzero(fresh)
            values = np.add.reduceat(values, starts)
            rows, cols = rows[starts], cols[starts]
        counts = np.bincount(rows, minlength=n_rows)
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(values, cols, indptr, (n_rows, n_cols))

    @classmethod
    def from_dense(cls, dense: Any) -> "CSRMatrix":
        """Build from a dense 2-D array (zeros are dropped)."""
        array = np.atleast_2d(np.asarray(dense, dtype=np.float64))
        rows, cols = np.nonzero(array)
        return cls.from_coo(rows, cols, array[rows, cols], array.shape)

    def to_dense(self) -> np.ndarray:
        """The matrix as a dense float64 array (the adapter dense
        solvers — e.g. the reference simplex — consume)."""
        out = np.zeros(self.shape, dtype=np.float64)
        rows = np.repeat(
            np.arange(self.shape[0]), np.diff(self.indptr.astype(np.int64))
        )
        out[rows, self.indices] = self.data
        return out

    def coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The entries back as ``(rows, cols, values)`` triplets."""
        rows = np.repeat(
            np.arange(self.shape[0], dtype=np.int64),
            np.diff(self.indptr.astype(np.int64)),
        )
        return rows, self.indices.astype(np.int64), self.data

    def __matmul__(self, x: Any) -> np.ndarray:
        vec = np.asarray(x, dtype=np.float64)
        rows, cols, values = self.coo()
        out = np.zeros(self.shape[0], dtype=np.float64)
        np.add.at(out, rows, values * vec[cols])
        return out

    def __repr__(self) -> str:
        return f"<CSRMatrix {self.shape[0]}x{self.shape[1]} nnz={self.data.size}>"


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


@dataclass(eq=False)
class LPProblem:
    """One standard-form linear program (minimise ``c @ x``).

    Canonical problems — what :class:`LPProblemBuilder` and
    :meth:`from_dense` produce, and what backends consume — carry:

    - ``c``: float64 objective vector;
    - ``a_ub``/``a_eq``: :class:`CSRMatrix` (or ``None`` when the
      system is absent) with float64 right-hand sides ``b_ub``/``b_eq``;
    - ``bounds``: ``(n, 2)`` float64 array of per-variable
      ``[low, high]`` with ``±inf`` for unbounded sides.

    Legacy problems (dense nested lists / 2-D arrays, pair-list bounds)
    are **rejected** by ``solve()`` (the one-release deprecation shim
    has expired); convert them first with :meth:`from_dense` or
    :meth:`canonical`.
    """

    c: Any
    a_ub: Any = None
    b_ub: Any = None
    a_eq: Any = None
    b_eq: Any = None
    bounds: Any = None

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
        """Canonicalize dense inputs (the explicit, warning-free
        migration path for callers that naturally hold dense data)."""
        c_arr = np.asarray(c, dtype=np.float64)
        return cls(
            c=c_arr,
            a_ub=None if a_ub is None else CSRMatrix.from_dense(a_ub),
            b_ub=None if b_ub is None else np.asarray(b_ub, dtype=np.float64),
            a_eq=None if a_eq is None else CSRMatrix.from_dense(a_eq),
            b_eq=None if b_eq is None else np.asarray(b_eq, dtype=np.float64),
            bounds=as_bounds_array(bounds, c_arr.size),
        )

    @property
    def is_canonical(self) -> bool:
        """True when every field is already in the sparse contract."""
        if not isinstance(self.c, np.ndarray):
            return False
        for matrix in (self.a_ub, self.a_eq):
            if matrix is not None and not isinstance(matrix, CSRMatrix):
                return False
        for rhs in (self.b_ub, self.b_eq):
            if rhs is not None and not isinstance(rhs, np.ndarray):
                return False
        return isinstance(self.bounds, np.ndarray) and self.bounds.ndim == 2

    def canonical(self) -> "LPProblem":
        """This problem in canonical sparse form (self when already
        canonical; otherwise a converted copy)."""
        if self.is_canonical:
            return self
        return LPProblem.from_dense(
            self.c, self.a_ub, self.b_ub, self.a_eq, self.b_eq, self.bounds
        )

    @property
    def num_variables(self) -> int:
        return len(self.c)

    @property
    def num_constraints(self) -> int:
        rows = 0
        if self.b_ub is not None:
            rows += len(self.b_ub)
        if self.b_eq is not None:
            rows += len(self.b_eq)
        return rows


class LPProblemBuilder:
    """Assemble an :class:`LPProblem` from COO triplets, vectorized.

    The builder is append-only: allocate constraint rows with
    :meth:`add_eq_rows` / :meth:`add_ub_rows` (optionally passing the
    block's triplets in the same call), scatter extra coefficients with
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
        self._eq_rows: list[np.ndarray] = []
        self._eq_cols: list[np.ndarray] = []
        self._eq_vals: list[np.ndarray] = []
        self._eq_rhs: list[np.ndarray] = []
        self._num_eq = 0
        self._ub_rows: list[np.ndarray] = []
        self._ub_cols: list[np.ndarray] = []
        self._ub_vals: list[np.ndarray] = []
        self._ub_rhs: list[np.ndarray] = []
        self._num_ub = 0

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
        base = self._num_eq
        rhs_arr = np.atleast_1d(np.asarray(rhs, dtype=np.float64))
        self._eq_rhs.append(rhs_arr)
        self._num_eq += rhs_arr.size
        if rows is not None:
            self._append(
                self._eq_rows, self._eq_cols, self._eq_vals,
                np.asarray(rows, dtype=np.int64) + base, cols, values,
            )
        return base

    def add_ub_rows(
        self,
        rhs: Any,
        rows: Any = None,
        cols: Any = None,
        values: Any = None,
    ) -> int:
        """Allocate a block of ``<=`` rows; returns the base row index."""
        base = self._num_ub
        rhs_arr = np.atleast_1d(np.asarray(rhs, dtype=np.float64))
        self._ub_rhs.append(rhs_arr)
        self._num_ub += rhs_arr.size
        if rows is not None:
            self._append(
                self._ub_rows, self._ub_cols, self._ub_vals,
                np.asarray(rows, dtype=np.int64) + base, cols, values,
            )
        return base

    def add_ub_entries(self, rows: Any, cols: Any, values: Any) -> None:
        """COO entries into already-allocated ``<=`` rows (absolute
        row indices)."""
        self._append(
            self._ub_rows, self._ub_cols, self._ub_vals,
            np.asarray(rows, dtype=np.int64), cols, values,
        )

    @staticmethod
    def _append(
        rows_list: list[np.ndarray],
        cols_list: list[np.ndarray],
        vals_list: list[np.ndarray],
        rows: np.ndarray,
        cols: Any,
        values: Any,
    ) -> None:
        cols_arr = np.asarray(cols, dtype=np.int64).ravel()
        vals_arr = np.asarray(values, dtype=np.float64).ravel()
        rows = rows.ravel()
        if not (rows.size == cols_arr.size == vals_arr.size):
            raise ValueError("COO triplet arrays must have equal length")
        rows_list.append(rows)
        cols_list.append(cols_arr)
        vals_list.append(vals_arr)

    def build(self) -> LPProblem:
        """The canonical sparse :class:`LPProblem`."""

        def _concat(parts: list[np.ndarray], dtype: type) -> np.ndarray:
            if not parts:
                return np.empty(0, dtype=dtype)
            return np.concatenate(parts)

        a_eq = a_ub = None
        b_eq = b_ub = None
        if self._num_eq:
            a_eq = CSRMatrix.from_coo(
                _concat(self._eq_rows, np.int64),
                _concat(self._eq_cols, np.int64),
                _concat(self._eq_vals, np.float64),
                (self._num_eq, self._n),
            )
            b_eq = _concat(self._eq_rhs, np.float64)
        if self._num_ub:
            a_ub = CSRMatrix.from_coo(
                _concat(self._ub_rows, np.int64),
                _concat(self._ub_cols, np.int64),
                _concat(self._ub_vals, np.float64),
                (self._num_ub, self._n),
            )
            b_ub = _concat(self._ub_rhs, np.float64)
        return LPProblem(
            c=self._c,
            a_ub=a_ub,
            b_ub=b_ub,
            a_eq=a_eq,
            b_eq=b_eq,
            bounds=np.column_stack((self._lower, self._upper)),
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

    def snapshot(self) -> "SolverTally":
        """A value copy, used to compute per-stage deltas."""
        return replace(self)

    def since(self, earlier: "SolverTally") -> dict[str, float | int]:
        """Stage-detail dict of the activity since ``earlier``."""
        return {
            "lp_solves": self.solves - earlier.solves,
            "lp_iterations": self.iterations - earlier.iterations,
            "lp_wall_ms": round(self.wall_ms - earlier.wall_ms, 3),
            "lp_batches": self.batches - earlier.batches,
            "lp_batched_solves": self.batched_solves - earlier.batched_solves,
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
    :meth:`solve` / :meth:`solve_batch` wrap them with canonical-form
    validation, wall-clock measurement and :class:`SolverTally`
    bookkeeping.
    """

    name = "abstract"

    def __init__(self) -> None:
        self.tally = SolverTally()

    def _admit(self, problem: LPProblem) -> LPProblem:
        if problem.is_canonical:
            return problem
        raise ValueError(
            "LPBackend.solve() requires a canonical LPProblem (sparse "
            "matrices, array bounds); assemble problems with "
            "LPProblemBuilder or convert with LPProblem.from_dense() — "
            "the dense-field deprecation shim has been removed"
        )

    def solve(
        self, problem: LPProblem, warm_start: object = None
    ) -> LPSolution:
        """Inert keyword: the e2e ``TracedBackend`` forwards it (ROADMAP 1b)."""
        problem = self._admit(problem)
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
        admitted = [self._admit(p) for p in problems]
        start = time.perf_counter()
        solutions = self._solve_batch(admitted)
        wall_ms = (time.perf_counter() - start) * 1000.0
        share = wall_ms / len(admitted) if admitted else 0.0
        stamped: list[LPSolution] = []
        for problem, solution in zip(admitted, solutions):
            solution = replace(solution, wall_ms=share)
            self.tally.record(problem, solution)
            stamped.append(solution)
        self.tally.record_batch(len(admitted))
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
