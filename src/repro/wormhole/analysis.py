"""Static output-inconsistency risk prediction (paper Section 3).

The paper's claim gives *sufficient* conditions for wormhole-routing OI:
messages M1 and M2 whose assigned routes share a link, connected through
the precedence order, pipelined at a period that puts M2 of invocation
``j`` on the shared link exactly when M1 of invocation ``j+1`` becomes
available.  :func:`predict_oi_risks` evaluates those conditions over the
contention-free baseline timetable — a compile-time early warning that
names the message pair and link, before any simulation runs.

The prediction is first-order: it reasons about the unperturbed
timetable, while real contention shifts instants and can create risks at
second order (or resolve predicted ones).  Predicted risks therefore
flag configurations to simulate, not certainties; the empty-risk case at
very large periods (where invocations cannot interact) is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.tfg.analysis import TFGTiming
from repro.topology.base import Topology
from repro.topology.routing import links_on_path, lsd_to_msd_route
from repro.units import EPS


@dataclass(frozen=True)
class OiRisk:
    """One predicted cross-invocation collision.

    Message ``blocked`` of invocation ``j+1`` becomes available while
    ``holder`` of invocation ``j`` occupies the shared ``link``
    (baseline instants ``available_at`` vs ``[busy_from, busy_until]``,
    frame-relative to the holder's invocation).
    """

    holder: str
    blocked: str
    link: tuple[int, int]
    available_at: float
    busy_from: float
    busy_until: float


def predict_oi_risks(
    timing: TFGTiming,
    topology: Topology,
    allocation: Mapping[str, int],
    tau_in: float,
) -> list[OiRisk]:
    """Message pairs satisfying the Section 3 collision conditions.

    For every ordered pair of routed messages sharing a link under
    LSD->MSD routing, checks whether the later message's next-invocation
    availability instant falls inside the earlier message's baseline
    occupancy of the shared link (the claim's
    ``t_s^0(M2) < t_s^1(M1) < t_f^0(M2)`` pattern, generalized to any
    invocation offset that the period admits).
    """
    schedule = timing.actual_asap_schedule()
    routed = []
    for message in timing.tfg.messages:
        src = allocation[message.src]
        dst = allocation[message.dst]
        if src == dst:
            continue
        links = set(links_on_path(lsd_to_msd_route(topology, src, dst)))
        available = schedule[message.src][1]
        busy_until = available + timing.xmit_time(message.name)
        routed.append((message.name, links, available, busy_until))

    risks: list[OiRisk] = []
    for holder_name, holder_links, holder_from, holder_until in routed:
        for blocked_name, blocked_links, blocked_avail, _ in routed:
            if holder_name == blocked_name:
                continue
            shared = holder_links & blocked_links
            if not shared:
                continue
            # Invocation offsets d >= 1 such that `blocked` of invocation
            # j+d becomes available inside `holder`'s (invocation j)
            # occupancy: holder_from < blocked_avail + d*tau_in <
            # holder_until for some integer d >= 1.
            lower = (holder_from - blocked_avail) / tau_in
            upper = (holder_until - blocked_avail) / tau_in
            first = max(1, int(lower) + 1)
            if first < upper - EPS:
                collision_at = blocked_avail + first * tau_in
                link = min(shared)
                risks.append(
                    OiRisk(
                        holder=holder_name,
                        blocked=blocked_name,
                        link=link,
                        available_at=collision_at,
                        busy_from=holder_from,
                        busy_until=holder_until,
                    )
                )
    return sorted(risks, key=lambda r: (r.holder, r.blocked, r.link))
