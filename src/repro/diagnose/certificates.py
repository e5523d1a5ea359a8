"""Refutation certificates: structured *why not* answers.

A :class:`Refutation` is a necessary-condition violation computed from
the problem instance alone — it names the messages, links and frame
window that cannot coexist, so infeasibility is *explained* rather than
merely reported.  A :class:`Diagnosis` bundles every certificate found
for one (timing, topology, allocation, tau_in) point together with the
list of analyses that ran.

Certificate taxonomy (``kind`` values)
--------------------------------------
``period``
    ``tau_in < tau_c``: the slowest task cannot keep up with the input
    rate (paper Section 2) — infinite accumulation, no schedule exists.
``window``
    A message's transmission requirement exceeds its release/deadline
    window, or the window exceeds the frame (successive instances of the
    message would overlap).
``disconnected``
    A routed message's endpoints have no path in the (possibly residual)
    topology.
``link-overload``
    Definition 5.1 violated on a *forced* link: messages that every
    minimal route must carry demand more transmission time than the
    union of their windows provides (``U_j > 1`` for every assignment).
``window-density``
    Hall-type bound: within some contiguous frame window, the load the
    involved messages cannot move elsewhere exceeds the time the window
    offers on a forced link.
``cut-overload``
    A topology cut (a node's link star, or the canonical bisection) is
    saturated: messages that must cross it demand more cut service time
    than ``|cut| x window`` provides.
``cut-exclusive``
    Packing bound on a node's link star: more messages each needing over
    half of one shared window must cross it than it has links, and no
    two of them fit on one link (``demand``/``capacity`` are counts).
``network-capacity``
    Volume bound: summed ``duration x minimal-distance`` over all routed
    messages exceeds total link time in the frame.
``lp-farkas``
    A Farkas ray of the interval-allocation LP (solver-backed; see
    :mod:`repro.diagnose.duals`).  Scope is *assignment*, not instance:
    it explains why one concrete path assignment failed.

Scopes
------
``instance`` certificates hold for **every** path assignment — they
refute the point outright and are what serve admission acts on.  ``assignment`` certificates explain one assignment's LP failure;
another assignment might still succeed, so they never gate compilation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.topology.base import Link

#: Certificates valid for every path assignment (admission acts on these).
SCOPE_INSTANCE = "instance"
#: Certificates explaining one concrete assignment's LP failure.
SCOPE_ASSIGNMENT = "assignment"

#: Relative margin a violation must clear before we refute.  An order of
#: magnitude wider than the LP feasibility tolerance, so a statically
#: refuted point can never sit inside the solvers' acceptance band.
REFUTE_MARGIN = 1e-6


def exceeds_capacity(demand: float, capacity: float) -> bool:
    """True when ``demand`` violates ``capacity`` beyond the refute margin."""
    return demand > capacity * (1.0 + REFUTE_MARGIN) + REFUTE_MARGIN


@dataclass(frozen=True)
class Refutation:
    """One necessary-condition violation with its concrete witness.

    Attributes
    ----------
    kind:
        Taxonomy bucket (module docstring).
    detail:
        Human-readable one-line explanation.
    messages:
        Names of the messages whose joint demand is infeasible.
    links:
        The overloaded links (one for link certificates, the cut's link
        set for cut certificates, empty for window/period kinds).
    window:
        The violated frame window ``(start, end)``; ``start > end``
        denotes a wrapped window.  ``None`` for non-temporal kinds.
    demand:
        Transmission time the messages require inside the window.
    capacity:
        Time the window/resource can offer; a certificate asserts
        ``demand > capacity`` beyond :data:`REFUTE_MARGIN`.
    scope:
        :data:`SCOPE_INSTANCE` or :data:`SCOPE_ASSIGNMENT`.
    """

    kind: str
    detail: str
    messages: tuple[str, ...] = ()
    links: tuple[Link, ...] = ()
    window: tuple[float, float] | None = None
    demand: float = 0.0
    capacity: float = 0.0
    scope: str = SCOPE_INSTANCE

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready payload (cache entries, ``--json`` output)."""
        return {
            "kind": self.kind,
            "detail": self.detail,
            "messages": list(self.messages),
            "links": [list(link) for link in self.links],
            "window": list(self.window) if self.window is not None else None,
            "demand": self.demand,
            "capacity": self.capacity,
            "scope": self.scope,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Refutation":
        window = payload.get("window")
        return cls(
            kind=str(payload["kind"]),
            detail=str(payload.get("detail", "")),
            messages=tuple(str(m) for m in payload.get("messages", ())),
            links=tuple(
                (int(a), int(b)) for a, b in payload.get("links", ())
            ),
            window=(float(window[0]), float(window[1]))
            if window is not None
            else None,
            demand=float(payload.get("demand", 0.0)),
            capacity=float(payload.get("capacity", 0.0)),
            scope=str(payload.get("scope", SCOPE_INSTANCE)),
        )

    def describe(self) -> str:
        """Terminal-friendly single line."""
        parts = [f"[{self.kind}] {self.detail}"]
        if self.window is not None:
            parts.append(f"window [{self.window[0]:g}, {self.window[1]:g}]")
        if self.capacity or self.demand:
            parts.append(f"demand {self.demand:.4f} > capacity {self.capacity:.4f}")
        return "; ".join(parts)


@dataclass(frozen=True)
class Diagnosis:
    """Every certificate found for one problem instance.

    ``checks`` records which analyses ran (so an empty refutation list
    is distinguishable from an analysis that was skipped), and
    ``elapsed_ms`` the wall time of a fresh diagnosis: telemetry, not
    value, so ``==`` and :meth:`to_dict` leave it out (a cache hit: 0).
    """

    tau_in: float
    refutations: tuple[Refutation, ...] = ()
    checks: tuple[str, ...] = ()
    elapsed_ms: float = field(default=0.0, compare=False)

    @property
    def refuted(self) -> bool:
        """True when an *instance-scoped* certificate exists — no path
        assignment can work, so the LP pipeline may be skipped."""
        return any(r.scope == SCOPE_INSTANCE for r in self.refutations)

    @property
    def instance_refutations(self) -> tuple[Refutation, ...]:
        return tuple(r for r in self.refutations if r.scope == SCOPE_INSTANCE)

    def summary(self) -> str:
        if not self.refutations:
            return (
                f"no static refutation (checks: {', '.join(self.checks)})"
            )
        kinds: dict[str, int] = {}
        for r in self.refutations:
            kinds[r.kind] = kinds.get(r.kind, 0) + 1
        label = "refuted" if self.refuted else "explained (assignment-scoped)"
        body = ", ".join(f"{k} x{n}" for k, n in sorted(kinds.items()))
        return f"{label}: {body}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "tau_in": self.tau_in,
            "refuted": self.refuted,
            "refutations": [r.to_dict() for r in self.refutations],
            "checks": list(self.checks),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Diagnosis":
        return cls(
            tau_in=float(payload["tau_in"]),
            refutations=tuple(
                Refutation.from_dict(r) for r in payload.get("refutations", ())
            ),
            checks=tuple(str(c) for c in payload.get("checks", ())),
        )
