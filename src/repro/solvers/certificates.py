"""Farkas infeasibility certificates for standard-form LPs.

By Farkas' lemma (variant for mixed systems), the system

    A_eq x = b,   A_ub x <= h,   l <= x <= u

is infeasible **iff** there exist multipliers ``lambda`` (free, one per
equality row), ``mu >= 0`` (one per inequality row) and ``nu >= 0`` (one
per finite upper bound) with, after shifting ``x`` by ``l``,

    A_eq' lambda - A_ub' mu - nu <= 0   (componentwise, transposed)
    lambda . b' - mu . h' - nu . u' > 0

— a non-negative combination of the constraints that proves a
contradiction.  The certificate *names* the constraints that conflict:
rows with non-zero multipliers are the infeasible core, which is exactly
what :mod:`repro.diagnose` translates into human-readable refutations.

Neither HiGHS-via-scipy nor the reference simplex exposes an
infeasibility ray directly, so the extraction is backend-agnostic: the
multipliers are themselves the solution of an *auxiliary* LP (maximise
the violation subject to the sign conditions, box-normalised so the
problem is bounded), solved with whichever backend the caller uses for
the primal.  The returned certificate is verified numerically before it
is accepted — a certificate is a proof object, never a solver's word.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.solvers.base import LP_TOL, LPBackend, LPProblem, LPProblemBuilder

__all__ = ["FarkasCertificate", "infeasibility_certificate"]

#: Slack of :meth:`FarkasCertificate.verify`'s sign and gap checks.
VERIFY_TOL = 1e-6


def _shifted_arrays(
    problem: LPProblem,
) -> tuple[
    np.ndarray | None,
    np.ndarray | None,
    np.ndarray | None,
    np.ndarray | None,
    np.ndarray,
    np.ndarray,
]:
    """Problem data with variable lows shifted to zero.

    Returns ``(a_eq, b_eq, a_ub, b_ub, upper_indices, uppers)`` where
    the right-hand sides absorb the lower bounds and ``uppers`` are the
    shifted finite upper bounds of the variables in ``upper_indices``.
    """
    bounds = problem.bounds
    lows = bounds[:, 0].astype(float)
    finite_upper = np.isfinite(bounds[:, 1])
    upper_idx = np.flatnonzero(finite_upper)
    uppers = bounds[upper_idx, 1] - lows[upper_idx]
    a_eq, a_ub = problem.a_eq, problem.a_ub
    b_eq = None if a_eq is None else problem.b_eq - a_eq @ lows
    b_ub = None if a_ub is None else problem.b_ub - a_ub @ lows
    return a_eq, b_eq, a_ub, b_ub, upper_idx.astype(int), uppers


@dataclass(frozen=True)
class FarkasCertificate:
    """A verified proof that an :class:`LPProblem` has no feasible point.

    Attributes
    ----------
    dual_eq:
        Multiplier per equality row (free sign).
    dual_ub:
        Multiplier per inequality row (non-negative).
    dual_upper:
        Multiplier per *finite variable upper bound*, aligned with
        ``upper_indices`` (non-negative).
    upper_indices:
        Variable indices whose upper bounds carry multipliers.
    violation:
        The certified gap ``lambda.b - mu.h - nu.u > 0`` (in the
        lower-bound-shifted frame); any feasible point would force this
        to be ``<= 0``.
    """

    dual_eq: tuple[float, ...]
    dual_ub: tuple[float, ...]
    dual_upper: tuple[float, ...]
    upper_indices: tuple[int, ...]
    violation: float

    def verify(self, problem: LPProblem) -> bool:
        """Re-check the Farkas conditions against the problem data."""
        a_eq, b_eq, a_ub, b_ub, upper_idx, uppers = _shifted_arrays(problem)
        n = problem.num_variables
        combo = np.zeros(n)
        gap = 0.0
        if a_eq is not None:
            lam = np.asarray(self.dual_eq)
            combo += a_eq.T @ lam
            gap += float(lam @ b_eq)
        if a_ub is not None:
            mu = np.asarray(self.dual_ub)
            if (mu < -VERIFY_TOL).any():
                return False
            combo -= a_ub.T @ mu
            gap -= float(mu @ b_ub)
        nu = np.asarray(self.dual_upper)
        if nu.size:
            if (nu < -VERIFY_TOL).any() or nu.size != uppers.size:
                return False
            if tuple(int(j) for j in upper_idx) != self.upper_indices:
                return False
            combo[upper_idx] -= nu
            gap -= float(nu @ uppers)
        return bool(combo.max(initial=0.0) <= VERIFY_TOL and gap > VERIFY_TOL)


def infeasibility_certificate(
    problem: LPProblem,
    backend: LPBackend,
) -> FarkasCertificate | None:
    """Extract and verify a Farkas certificate for an infeasible LP.

    Returns ``None`` when no certificate clears the tolerance — either
    the problem is feasible, or it is too marginally infeasible to
    prove at this precision (callers must treat ``None`` as "no
    verdict", never as "feasible").
    """
    a_eq, b_eq, a_ub, b_ub, upper_idx, uppers = _shifted_arrays(problem)
    n = problem.num_variables
    m_eq = 0 if b_eq is None else len(b_eq)
    m_ub = 0 if b_ub is None else len(b_ub)
    m_up = len(upper_idx)
    total = m_eq + m_ub + m_up
    if total == 0:
        return None

    # Aux LP over (lambda, mu, nu): maximise lambda.b - mu.h - nu.u
    # subject to A_eq^T lambda - A_ub^T mu - nu <= 0, with the box
    # normalisation |lambda| <= 1, 0 <= mu, nu <= 1 keeping it bounded.
    c = np.zeros(total)
    if m_eq:
        c[:m_eq] = -b_eq  # minimise the negated objective
    if m_ub:
        c[m_eq : m_eq + m_ub] = b_ub
    if m_up:
        c[m_eq + m_ub :] = uppers

    # The aux constraint matrix is the transposed primal data, assembled
    # as triplets: an entry (i, j, v) of A_eq becomes (j, i, v) here,
    # one of A_ub becomes (j, m_eq + i, -v).  The primal stacks A_ub
    # over A_eq, so its row i is an A_ub row when i < m_ub.
    builder = LPProblemBuilder(total)
    builder.set_objective_vector(c)
    if m_eq:
        builder.set_lower(np.arange(m_eq), np.full(m_eq, -1.0))
    builder.set_upper(np.arange(total), np.ones(total))
    builder.add_ub_rows(np.zeros(n))
    cols = np.repeat(np.arange(n), np.diff(problem.start))
    rows = problem.index.astype(np.int64)
    in_ub = rows < m_ub
    builder.add_ub_entries(
        cols,
        np.where(in_ub, m_eq + rows, rows - m_ub),
        np.where(in_ub, -problem.value, problem.value),
    )
    if m_up:
        builder.add_ub_entries(
            upper_idx,
            m_eq + m_ub + np.arange(m_up),
            np.full(m_up, -1.0),
        )
    solution = backend.solve(builder.build())
    if not solution.success:
        return None
    violation = -float(solution.objective)
    if violation <= LP_TOL:
        return None
    x = np.asarray(solution.x)
    certificate = FarkasCertificate(
        dual_eq=tuple(float(v) for v in x[:m_eq]),
        dual_ub=tuple(float(v) for v in x[m_eq : m_eq + m_ub]),
        dual_upper=tuple(float(v) for v in x[m_eq + m_ub :]),
        upper_indices=tuple(int(j) for j in upper_idx),
        violation=violation,
    )
    if not certificate.verify(problem):
        return None
    return certificate
