"""Layer 1: necessary-condition certificates from instance structure.

Everything here is solver-free: the checks read the TFG timing, the
topology and the task allocation, and refute a point only when **every**
path assignment would fail.  The load arithmetic is shared with the
compiler's utilisation gate via :func:`repro.core.utilization.
window_demand` / :func:`~repro.core.utilization.link_loads`, and the
time bounds come from the same :func:`repro.core.timebounds.
compute_time_bounds` the pipeline uses — the diagnoser cannot drift
from the compiler's own definitions.

The refutation engine is one Hall-type argument instantiated three ways:
for any set of messages pinned to a resource of multiplicity ``c`` and
any contiguous frame window ``W``, the load they cannot move outside
``W`` must fit in ``c`` times the time ``W`` offers.  With the resource
a *forced link* (multiplicity 1) and ``W`` the whole frame this is
exactly Definition 5.1's ``U_j <= 1``; with shorter windows it is the
window-density bound; with the resource a node's link star or the
canonical bisection it is the cut bound.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from repro.cache.keys import CACHE_VERSION, diagnosis_cache_key
from repro.core.timebounds import (
    TimeBoundSet,
    compute_time_bounds,
    require_sync_margin,
)
from repro.core.utilization import link_loads
from repro.diagnose.certificates import (
    Diagnosis,
    Refutation,
    exceeds_capacity,
)
from repro.errors import TopologyError
from repro.tfg.analysis import TFGTiming
from repro.topology.analysis import canonical_bisection
from repro.topology.base import Link, Topology, link_between
from repro.topology.routing import links_on_path
from repro.units import EPS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.store import ScheduleCache


def _distance_avoiding(
    topology: Topology, src: int, dst: int, banned: Link
) -> int | None:
    """Minimal hop count from ``src`` to ``dst`` never crossing ``banned``.

    Plain BFS over :meth:`Topology.neighbors` (ignores any closed-form
    ``distance`` override, so it is correct on residual topologies too).
    ``None`` when removing the link disconnects the pair.
    """
    if src == dst:
        return 0
    frontier = [src]
    seen = {src}
    hops = 0
    while frontier:
        hops += 1
        nxt: list[int] = []
        for u in frontier:
            for v in topology.neighbors(u):
                if link_between(u, v) == banned:
                    continue
                if v == dst:
                    return hops
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return None


def forced_links(topology: Topology, src: int, dst: int) -> tuple[Link, ...]:
    """Links that **every** minimal ``src -> dst`` route must use.

    A link is forced exactly when removing it increases the pair's
    distance; candidates are the links of any one minimal path (a forced
    link lies on all of them).  For adjacent endpoints the single link
    is always forced.
    """
    if src == dst:
        return ()
    distance = topology.distance(src, dst)
    pool = topology.minimal_path_pool(src, dst, max_paths=1)
    if not pool:
        return ()
    forced: list[Link] = []
    for link in links_on_path(pool[0]):
        without = _distance_avoiding(topology, src, dst, link)
        if without is None or without > distance:
            forced.append(link)
    return tuple(sorted(forced))


def _star(topology: Topology, node: int) -> tuple[Link, ...]:
    """The links at ``node``: the cut every message docked there crosses."""
    return tuple(
        sorted(link_between(node, v) for v in topology.neighbors(node))
    )


class _HallViolation:
    """Worst violated Hall window for one resource (internal)."""

    def __init__(
        self,
        window: tuple[float, float],
        demand: float,
        capacity: float,
        messages: tuple[str, ...],
        full_frame: bool,
    ) -> None:
        self.window = window
        self.demand = demand
        self.capacity = capacity
        self.messages = messages
        self.full_frame = full_frame


def _worst_overload(
    bounds: TimeBoundSet,
    rows: Sequence[int],
    multiplicity: int,
) -> _HallViolation | None:
    """The most violated Hall window for messages pinned to one resource.

    Candidate windows run from a window-start boundary to a window-end
    boundary of the involved messages (the classical release/deadline
    family), plus the full frame.  Capacity is ``multiplicity`` times
    the union length of the involved messages' activity inside the
    window — each unit of the resource serves at most one message at a
    time, and only while some message is available.
    """
    if not rows:
        return None
    boundaries = bounds.intervals.boundaries
    lengths = np.asarray(bounds.intervals.lengths)
    K = bounds.intervals.count
    activity = bounds.activity[list(rows)]
    durations = np.array([bounds.bounds[bounds.order[i]].duration for i in rows])
    active_lengths = activity @ lengths
    any_active = activity.any(axis=0)

    def boundary_index(value: float) -> int:
        best = min(range(len(boundaries)), key=lambda i: abs(boundaries[i] - value))
        return best if abs(boundaries[best] - value) <= EPS else -1

    starts: set[int] = set()
    ends: set[int] = set()
    for i in rows:
        for seg_start, seg_end in bounds.bounds[bounds.order[i]].windows:
            a = boundary_index(seg_start)
            b = boundary_index(seg_end)
            if a >= 0:
                starts.add(a)
            if b >= 0:
                ends.add(b)

    candidates: list[tuple[np.ndarray, tuple[float, float], bool]] = [
        (np.ones(K, dtype=bool), (0.0, bounds.tau_in), True)
    ]
    for a in sorted(starts):
        for b in sorted(ends):
            if a == b:
                continue
            mask = np.zeros(K, dtype=bool)
            if a < b:
                mask[a:b] = True
            else:  # wrapped run
                mask[a:] = True
                mask[:b] = True
            candidates.append((mask, (boundaries[a], boundaries[b]), False))

    best: _HallViolation | None = None
    best_excess = 0.0
    for mask, window, full in candidates:
        within = activity[:, mask] @ lengths[mask]
        demand_each = np.maximum(0.0, durations - (active_lengths - within))
        demand = float(demand_each.sum())
        capacity = float(lengths[mask & any_active].sum()) * multiplicity
        if not exceeds_capacity(demand, capacity):
            continue
        excess = demand - capacity
        if best is None or excess > best_excess:
            involved = tuple(
                bounds.order[i]
                for i, d in zip(rows, demand_each)
                if d > EPS
            )
            best = _HallViolation(window, demand, capacity, involved, full)
            best_excess = excess
    return best


def diagnose_instance(
    timing: TFGTiming,
    topology: Topology,
    allocation: Mapping[str, int],
    tau_in: float,
    *,
    sync_margin: float = 0.0,
    cache: "ScheduleCache | None" = None,
) -> Diagnosis:
    """Run every static (layer-1) check over one problem instance.

    Returns a :class:`Diagnosis`; ``diagnosis.refuted`` means no path
    assignment at all can meet the requirements, so the LP pipeline may
    be skipped.  Certificates are sound by construction (each is a
    necessary condition) and the fuzz harness enforces this against both
    LP backends (``repro.check.fuzz``).  A negative or non-finite
    ``sync_margin`` raises :class:`ValueError`.
    """
    require_sync_margin(sync_margin)
    started = time.perf_counter()
    key: str | None = None
    if cache is not None:
        key = diagnosis_cache_key(
            timing, topology, allocation, tau_in, sync_margin
        )
        cached = cache.get(
            key,
            ("diagnosis",),
            lambda entry: Diagnosis.from_dict(entry["diagnosis"]),
        )
        if cached is not None:
            return cached
    checks: list[str] = []
    refutations: list[Refutation] = []

    routed = [
        message
        for message in timing.tfg.messages
        if allocation[message.src] != allocation[message.dst]
    ]

    # -- window / period feasibility (mirrors compute_time_bounds) -------
    checks.append("window")
    window = timing.message_window
    if tau_in < timing.tau_c - EPS:
        refutations.append(
            Refutation(
                kind="period",
                detail=(
                    f"tau_in={tau_in:g} below tau_c={timing.tau_c:g}: the "
                    "slowest task cannot sustain the input rate"
                ),
                demand=timing.tau_c,
                capacity=tau_in,
            )
        )
    if window > tau_in + EPS:
        refutations.append(
            Refutation(
                kind="window",
                detail=(
                    f"message window {window:g} exceeds the period "
                    f"{tau_in:g}; successive instances would overlap"
                ),
                demand=window,
                capacity=tau_in,
            )
        )
    for message in routed:
        duration = timing.xmit_time(message.name) + sync_margin
        if duration > window + EPS:
            refutations.append(
                Refutation(
                    kind="window",
                    detail=(
                        f"message {message.name!r} needs {duration:g} time "
                        f"units but its window is {window:g}"
                    ),
                    messages=(message.name,),
                    demand=duration,
                    capacity=window,
                )
            )
    if refutations:
        # Time bounds cannot even be constructed; later checks need them.
        return _finish(tau_in, refutations, checks, started, cache, key)

    # -- connectivity -----------------------------------------------------
    checks.append("connectivity")
    distances: dict[str, int] = {}
    for message in routed:
        src, dst = allocation[message.src], allocation[message.dst]
        try:
            distances[message.name] = topology.distance(src, dst)
        except TopologyError:
            refutations.append(
                Refutation(
                    kind="disconnected",
                    detail=(
                        f"message {message.name!r}: nodes {src} and {dst} "
                        f"are disconnected in {topology.name}"
                    ),
                    messages=(message.name,),
                )
            )
    connected = [m for m in routed if m.name in distances]

    bounds = compute_time_bounds(
        timing, tau_in, [m.name for m in routed], extra_duration=sync_margin
    )

    # -- forced-link overload (Def. 5.1 + Hall windows) -------------------
    checks.append("forced-link")
    forced_map: dict[str, tuple[Link, ...]] = {}
    for message in connected:
        src, dst = allocation[message.src], allocation[message.dst]
        pinned = forced_links(topology, src, dst)
        if pinned:
            forced_map[message.name] = pinned
    for link, load in link_loads(bounds, forced_map).items():
        rows = [bounds.index[name] for name in load.messages]
        violation = _worst_overload(bounds, rows, multiplicity=1)
        if violation is None:
            continue
        kind = "link-overload" if violation.full_frame else "window-density"
        ratio = violation.demand / violation.capacity if violation.capacity else float("inf")
        refutations.append(
            Refutation(
                kind=kind,
                detail=(
                    f"link {link} is forced to carry "
                    f"{len(violation.messages)} message(s) at density "
                    f"{ratio:.3f} > 1"
                ),
                messages=violation.messages,
                links=(link,),
                window=violation.window,
                demand=violation.demand,
                capacity=violation.capacity,
            )
        )

    # -- cut capacity (node stars + canonical bisection) ------------------
    checks.append("cut")
    node_of = {m.name: (allocation[m.src], allocation[m.dst]) for m in connected}
    for node in range(topology.num_nodes):
        crossing = [
            name
            for name, (src, dst) in node_of.items()
            if (src == node) != (dst == node)
        ]
        if len(crossing) < 2:
            continue
        rows = [bounds.index[name] for name in crossing]
        degree = topology.degree(node)
        # Messages sharing one window and each longer than half of it
        # cannot pairwise share a link, so each needs a star link of its
        # own: a packing bound the volume argument below cannot see.
        rivals: dict[tuple[float, float], list[str]] = {}
        for name in crossing:
            bound = bounds.bounds[name]
            if exceeds_capacity(2.0 * bound.duration, bound.active_length):
                rivals.setdefault(
                    (bound.release, bound.deadline), []
                ).append(name)
        for shared, names in rivals.items():
            if len(names) > degree:
                refutations.append(
                    Refutation(
                        kind="cut-exclusive",
                        detail=(
                            f"node {node}: {len(names)} messages each fill "
                            f"more than half of their common window but "
                            f"only {degree} links leave the node"
                        ),
                        messages=tuple(names),
                        links=_star(topology, node),
                        # A window as long as the frame wraps onto
                        # release == deadline.
                        window=shared
                        if shared[0] != shared[1]
                        else (0.0, tau_in),
                        demand=float(len(names)),
                        capacity=float(degree),
                    )
                )
        violation = _worst_overload(bounds, rows, multiplicity=degree)
        if violation is None:
            continue
        refutations.append(
            Refutation(
                kind="cut-overload",
                detail=(
                    f"node {node}'s {degree} links cannot carry its "
                    f"{len(violation.messages)} crossing message(s): "
                    f"{violation.demand:.4f} > {violation.capacity:.4f}"
                ),
                messages=violation.messages,
                links=_star(topology, node),
                window=violation.window,
                demand=violation.demand,
                capacity=violation.capacity,
            )
        )
    upper, crossing_links = canonical_bisection(topology)
    bisection = [
        name
        for name, (src, dst) in node_of.items()
        if (src in upper) != (dst in upper)
    ]
    if bisection and crossing_links:
        rows = [bounds.index[name] for name in bisection]
        violation = _worst_overload(
            bounds, rows, multiplicity=len(crossing_links)
        )
        if violation is not None:
            refutations.append(
                Refutation(
                    kind="cut-overload",
                    detail=(
                        f"bisection ({len(crossing_links)} links) saturated "
                        f"by {len(violation.messages)} crossing message(s)"
                    ),
                    messages=violation.messages,
                    links=crossing_links,
                    window=violation.window,
                    demand=violation.demand,
                    capacity=violation.capacity,
                )
            )

    # -- network volume ---------------------------------------------------
    checks.append("network-capacity")
    if connected:
        rows = [bounds.index[m.name] for m in connected]
        lengths = np.asarray(bounds.intervals.lengths)
        any_active = bounds.activity[rows].any(axis=0)
        volume = sum(
            bounds.bounds[m.name].duration * distances[m.name]
            for m in connected
        )
        capacity = float(lengths[any_active].sum()) * topology.num_links
        if exceeds_capacity(volume, capacity):
            refutations.append(
                Refutation(
                    kind="network-capacity",
                    detail=(
                        f"total message volume {volume:.4f} link-time units "
                        f"exceeds network capacity {capacity:.4f}"
                    ),
                    messages=tuple(m.name for m in connected),
                    links=tuple(topology.links),
                    window=(0.0, tau_in),
                    demand=volume,
                    capacity=capacity,
                )
            )

    return _finish(tau_in, refutations, checks, started, cache, key)


def _finish(
    tau_in: float,
    refutations: Iterable[Refutation],
    checks: Iterable[str],
    started: float,
    cache: "ScheduleCache | None",
    key: str | None,
) -> Diagnosis:
    ordered = tuple(
        sorted(
            refutations,
            key=lambda r: (r.kind, r.links, r.messages, r.detail),
        )
    )
    diagnosis = Diagnosis(
        tau_in=tau_in,
        refutations=ordered,
        checks=tuple(checks),
        elapsed_ms=(time.perf_counter() - started) * 1000.0,
    )
    if cache is not None and key is not None:
        cache.put(
            key,
            {
                "format": CACHE_VERSION,
                "kind": "diagnosis",
                "diagnosis": diagnosis.to_dict(),
            },
        )
    return diagnosis
