"""Pluggable LP solver backends for the SR compiler.

The two LP stages of the scheduled-routing compiler (message-interval
allocation and interval scheduling) obtain their solver through
:func:`get_backend` instead of importing scipy directly:

>>> from repro.solvers import get_backend
>>> backend = get_backend("auto")   # highs when scipy exists, else reference
>>> solution = backend.solve(problem)

An :class:`~repro.solvers.base.LPProblem` is one layout, the
column-wise matrix over ``[A_ub; A_eq]`` with its row bounds that HiGHS
consumes; assemble it from COO triplets with
:class:`~repro.solvers.base.LPProblemBuilder`, from dense data with
:meth:`~repro.solvers.base.LPProblem.from_dense`, or emit it directly as
the compiler's two LP stages do.  Backends additionally expose
``solve_batch`` (independent problems stitched into one block-diagonal
solve where the backend supports it).

Backend names
-------------
``auto``
    Resolve per call: ``highs`` when scipy is importable (looked up once
    per process), otherwise the pure-Python ``reference`` simplex.  This
    is the ``CompilerConfig.lp_backend`` default.
``highs``
    :class:`~repro.solvers.scipy_backend.ScipyLinprogBackend` with
    scipy's automatic HiGHS choice — the fast path.
``reference``
    :class:`~repro.solvers.reference.ReferenceSimplexBackend` — a
    deterministic numpy-only two-phase simplex for environments without
    scipy (slow, small problems only).

``get_backend`` returns a **fresh instance** each call; a backend's
:class:`~repro.solvers.base.SolverTally` therefore covers exactly one
compilation (the stages snapshot it per traced stage).

Exact mixed-integer solves are not a backend: the AssignPaths
optimality-gap reference calls
:func:`repro.solvers.ilp_backend.solve_integer` directly.
"""

from __future__ import annotations

import functools
import importlib.util
from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.solvers.base import LPBackend

_exported, __getattr__, __dir__ = lazy_exports(__name__, {
    "FarkasCertificate": "certificates",
    "LP_TOL": "base",
    "LPBackend": "base",
    "LPProblem": "base",
    "LPProblemBuilder": "base",
    "LPSolution": "base",
    "ReferenceSimplexBackend": "reference",
    "ScipyLinprogBackend": "scipy_backend",
    "SolverTally": "base",
    "TalliedBackend": "base",
    "exceeds_tolerance": "base",
    "infeasibility_certificate": "certificates",
})
__all__ = sorted([
    *_exported,
    "BACKEND_NAMES",
    "available_backends",
    "default_backend_name",
    "get_backend",
    "have_scipy",
])

#: Names accepted by :func:`get_backend`.
BACKEND_NAMES = ("auto", "highs", "reference")


@functools.cache
def have_scipy() -> bool:
    """True when scipy is importable (without importing it).

    Resolved once per process: ``find_spec`` walks ``sys.path``, and
    scipy never lands in ``sys.modules`` to short-cut it (the HiGHS engine
    loads its extension by file path), yet every ``auto`` compile and
    every cache key asks."""
    return importlib.util.find_spec("scipy") is not None


def default_backend_name() -> str:
    """The concrete backend ``auto`` resolves to in this environment."""
    return "highs" if have_scipy() else "reference"


def available_backends() -> tuple[str, ...]:
    """Concrete backend names usable in this environment."""
    if have_scipy():
        return ("highs", "reference")
    return ("reference",)


def get_backend(name: str = "auto") -> LPBackend:
    """Instantiate the named LP backend (see module docstring)."""
    if name == "auto":
        name = default_backend_name()
    if name == "highs":
        from repro.solvers.scipy_backend import ScipyLinprogBackend

        return ScipyLinprogBackend()
    if name == "reference":
        from repro.solvers.reference import ReferenceSimplexBackend

        return ReferenceSimplexBackend()
    raise ValueError(
        f"unknown LP backend {name!r} (expected one of {BACKEND_NAMES})"
    )
