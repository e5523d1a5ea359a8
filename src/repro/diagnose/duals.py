"""Layer 2: solver-backed certificates for allocation-LP failures.

A static (layer-1) certificate refutes an instance for *every* path
assignment.  When layer 1 finds nothing but the compiler's allocation
LP still fails, this layer explains *why that assignment failed*: it
re-poses constraint (3)-(4) as a pure feasibility probe (capacities
fixed at the real interval lengths, no load-factor variable), extracts
a verified Farkas ray through :func:`repro.solvers.certificates.
infeasibility_certificate`, and reads the ray's non-zero multipliers
back through the LP's row labels — which messages' duration equations
and which (link, interval) capacity rows combine into a contradiction.

The resulting :class:`~repro.diagnose.certificates.Refutation` carries
``scope="assignment"``: another path assignment might avoid the
conflict, so these certificates explain rather than refute.
"""

from __future__ import annotations


from repro.core.assignment import PathAssignment
from repro.core.interval_allocation import build_allocation_problem
from repro.core.subsets import maximal_subsets
from repro.core.timebounds import TimeBoundSet
from repro.diagnose.certificates import SCOPE_ASSIGNMENT, Refutation
from repro.solvers import get_backend
from repro.solvers.base import LPBackend
from repro.solvers.certificates import FarkasCertificate, infeasibility_certificate
from repro.topology.base import Link

#: Multipliers below this are rounding noise, not part of the core
#: (the aux LP box-normalises all multipliers into [-1, 1]).
MULTIPLIER_TOL = 1e-6


def _translate(
    bounds: TimeBoundSet,
    subset: tuple[str, ...],
    subset_index: int,
    certificate: FarkasCertificate,
    eq_messages: tuple[str, ...],
    ub_rows: tuple[tuple[str, Link | None, int], ...],
    variables: tuple[tuple[str, int], ...],
) -> Refutation:
    """Read a Farkas ray back through the LP's row/column labels."""
    messages = tuple(
        name
        for name, lam in zip(eq_messages, certificate.dual_eq)
        if abs(lam) > MULTIPLIER_TOL
    )
    links: set[Link] = set()
    intervals: set[int] = set()
    capacity = 0.0
    for (tag, link, k), mu in zip(ub_rows, certificate.dual_ub):
        if mu <= MULTIPLIER_TOL:
            continue
        intervals.add(k)
        if tag == "link" and link is not None:
            links.add(link)
        capacity += mu * bounds.intervals.lengths[k]
    for slot, nu in zip(certificate.upper_indices, certificate.dual_upper):
        if nu > MULTIPLIER_TOL and slot < len(variables):
            _, k = variables[slot]
            intervals.add(k)
            capacity += nu * bounds.intervals.lengths[k]
    demand = sum(
        lam * bounds.bounds[name].duration
        for name, lam in zip(eq_messages, certificate.dual_eq)
    )
    if intervals:
        start = min(bounds.intervals.interval(k)[0] for k in intervals)
        end = max(bounds.intervals.interval(k)[1] for k in intervals)
        window: tuple[float, float] | None = (start, end)
    else:
        window = (0.0, bounds.tau_in)
    return Refutation(
        kind="lp-farkas",
        detail=(
            f"allocation LP for maximal subset {subset_index} is "
            f"infeasible: a weighted combination of {len(messages)} "
            f"duration equation(s) and {len(links)} link-capacity "
            f"row(s) is violated by {certificate.violation:.6f}"
        ),
        messages=messages,
        links=tuple(sorted(links)),
        window=window,
        demand=float(demand),
        capacity=float(capacity),
        scope=SCOPE_ASSIGNMENT,
    )


def explain_allocation_failure(
    bounds: TimeBoundSet,
    assignment: PathAssignment,
    subset: tuple[str, ...],
    subset_index: int = 0,
    backend: LPBackend | None = None,
) -> Refutation | None:
    """Farkas-certify one maximal subset's allocation infeasibility.

    Returns ``None`` when the feasibility probe is satisfiable (the
    subset is allocatable at real capacities) or when no certificate
    clears the verification tolerance.
    """
    if backend is None:
        backend = get_backend()
    built = build_allocation_problem(
        bounds, assignment, subset, fixed_capacity=True
    )
    certificate = infeasibility_certificate(built.problem, backend)
    if certificate is None:
        return None
    return _translate(
        bounds,
        subset,
        subset_index,
        certificate,
        built.eq_messages,
        built.ub_rows,
        built.variables,
    )


def explain_assignment(
    bounds: TimeBoundSet,
    assignment: PathAssignment,
    backend: LPBackend | None = None,
) -> tuple[Refutation, ...]:
    """Farkas certificates for every unallocatable maximal subset.

    The deep-diagnosis driver behind ``repro-sr diagnose --deep``: given
    the concrete assignment the compiler would use, probe each maximal
    subset's feasibility LP and translate every infeasible ray found.
    An empty result means the allocation stage would accept this
    assignment (interval *scheduling* may still fail downstream).
    """
    if backend is None:
        backend = get_backend()
    refutations: list[Refutation] = []
    for index, subset in enumerate(maximal_subsets(bounds, assignment)):
        refutation = explain_allocation_failure(
            bounds, assignment, tuple(subset), index, backend
        )
        if refutation is not None:
            refutations.append(refutation)
    return tuple(refutations)


__all__ = [
    "MULTIPLIER_TOL",
    "explain_allocation_failure",
    "explain_assignment",
]
