"""Independent replay of refutation witnesses.

The fuzz soundness gate must not trust the diagnoser's own arithmetic,
so this module re-derives every overload claim from first principles:
release instants straight from the windowed ASAP schedule, window
segments re-wrapped onto the frame by hand, overlap lengths by direct
segment intersection, and forced links by a fresh BFS.  It deliberately
does **not** import :mod:`repro.core.timebounds` or
:mod:`repro.core.utilization` — a shared bug there would otherwise
confirm its own wrong certificates.

:func:`verify_refutation` returns a list of problems; an empty list
means the witness replays as genuinely overloaded.
"""

from __future__ import annotations

from typing import Mapping

from repro.diagnose.certificates import REFUTE_MARGIN, Refutation
from repro.tfg.analysis import TFGTiming
from repro.topology.base import Link, Topology, link_between
from repro.units import EPS

Segment = tuple[float, float]


def _message_segments(
    timing: TFGTiming, tau_in: float, name: str, sync_margin: float
) -> tuple[list[Segment], float]:
    """(window segments on the frame, transmission requirement)."""
    message = timing.tfg.message(name)
    finish = timing.asap_schedule()[message.src][1]
    release = finish - tau_in * int(finish / tau_in)
    if release >= tau_in - EPS:
        release = 0.0
    duration = timing.xmit_time(name) + sync_margin
    end = release + timing.message_window
    if end <= tau_in + EPS:
        return [(release, min(end, tau_in))], duration
    return [(0.0, end - tau_in), (release, tau_in)], duration


def _window_segments(window: Segment, tau_in: float) -> list[Segment]:
    """A (possibly wrapped) refutation window as plain segments."""
    start, end = window
    if start <= end:
        return [(start, end)]
    return [(0.0, end), (start, tau_in)]


def _overlap(a: list[Segment], b: list[Segment]) -> float:
    """Total length of the intersection of two segment lists."""
    total = 0.0
    for a0, a1 in a:
        for b0, b1 in b:
            total += max(0.0, min(a1, b1) - max(a0, b0))
    return total


def _union_length(segments: list[Segment]) -> float:
    """Length of the union of segments (sweep)."""
    if not segments:
        return 0.0
    ordered = sorted(segments)
    total = 0.0
    cur_start, cur_end = ordered[0]
    for start, end in ordered[1:]:
        if start > cur_end:
            total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    return total + (cur_end - cur_start)


def _bfs_distance(
    topology: Topology, src: int, dst: int, banned: Link | None = None
) -> int | None:
    """Hop count by plain BFS; ``None`` if unreachable."""
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
                if banned is not None and link_between(u, v) == banned:
                    continue
                if v == dst:
                    return hops
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return None


def verify_refutation(
    timing: TFGTiming,
    topology: Topology,
    allocation: Mapping[str, int],
    tau_in: float,
    refutation: Refutation,
    sync_margin: float = 0.0,
) -> list[str]:
    """Replay one certificate's witness; return the list of problems.

    Checks, per certificate kind, that (a) the structural claim holds
    (the messages really are forced across the named links / really
    cross the cut) and (b) the recomputed demand genuinely exceeds the
    recomputed capacity.  An empty return confirms the witness.
    """
    problems: list[str] = []
    kind = refutation.kind

    if kind == "period":
        if tau_in >= timing.tau_c - EPS:
            problems.append(
                f"period claim false: tau_in={tau_in} >= tau_c={timing.tau_c}"
            )
        return problems

    if kind == "window":
        window = timing.message_window
        if window > tau_in + EPS:
            return problems
        for name in refutation.messages:
            duration = timing.xmit_time(name) + sync_margin
            if duration > window + EPS:
                return problems
        problems.append("window claim false: every named message fits")
        return problems

    if kind == "disconnected":
        for name in refutation.messages:
            message = timing.tfg.message(name)
            src, dst = allocation[message.src], allocation[message.dst]
            if _bfs_distance(topology, src, dst) is not None:
                problems.append(
                    f"disconnected claim false: {name!r} has a path"
                )
        return problems

    if refutation.window is None:
        problems.append(f"{kind} certificate lacks a window witness")
        return problems

    window_segments = _window_segments(refutation.window, tau_in)
    demands: dict[str, float] = {}
    segments: dict[str, list[Segment]] = {}
    for name in refutation.messages:
        segs, duration = _message_segments(timing, tau_in, name, sync_margin)
        segments[name] = segs
        active = sum(e - s for s, e in segs)
        within = _overlap(segs, window_segments)
        demands[name] = max(0.0, duration - (active - within))

    clipped = [
        (max(s, w0), min(e, w1))
        for name in refutation.messages
        for s, e in segments[name]
        for w0, w1 in window_segments
        if min(e, w1) - max(s, w0) > 0
    ]
    available = _union_length(clipped)

    if kind in ("link-overload", "window-density"):
        for name in refutation.messages:
            message = timing.tfg.message(name)
            src, dst = allocation[message.src], allocation[message.dst]
            distance = _bfs_distance(topology, src, dst)
            for link in refutation.links:
                without = _bfs_distance(topology, src, dst, banned=link)
                if (
                    distance is not None
                    and without is not None
                    and without <= distance
                ):
                    problems.append(
                        f"{name!r} is not forced onto link {link}: a "
                        "minimal route avoids it"
                    )
        demand = sum(demands.values())
        capacity = available * len(refutation.links)
    elif kind in ("cut-overload", "cut-exclusive"):
        cut = set(refutation.links)
        for name in refutation.messages:
            message = timing.tfg.message(name)
            src, dst = allocation[message.src], allocation[message.dst]
            if not _crosses_cut(topology, src, dst, cut):
                problems.append(
                    f"{name!r} does not have to cross the claimed cut"
                )
        if kind == "cut-overload":
            demand = sum(demands.values())
            capacity = available * len(refutation.links)
        else:  # one link each: the claim counts messages against links
            for name in refutation.messages:
                if 2.0 * demands[name] <= available * (
                    1.0 + REFUTE_MARGIN / 10.0
                ):
                    problems.append(
                        f"{name!r} fills at most half the window: it can "
                        "share a link"
                    )
            demand = float(len(refutation.messages))
            capacity = float(len(refutation.links))
    elif kind == "network-capacity":
        demand = 0.0
        for name in refutation.messages:
            message = timing.tfg.message(name)
            src, dst = allocation[message.src], allocation[message.dst]
            distance = _bfs_distance(topology, src, dst)
            if distance is None:
                problems.append(f"{name!r} endpoints unreachable")
                continue
            demand += demands[name] * distance
        capacity = available * topology.num_links
    else:
        problems.append(f"unknown certificate kind {kind!r}")
        return problems

    if demand <= capacity * (1.0 + REFUTE_MARGIN / 10.0):
        problems.append(
            f"overload claim false: replayed demand {demand:.6f} fits "
            f"capacity {capacity:.6f}"
        )
    return problems


def _crosses_cut(
    topology: Topology, src: int, dst: int, cut: set[Link]
) -> bool:
    """True when every ``src -> dst`` path uses at least one cut link.

    BFS on the topology minus the cut: unreachable means the cut
    separates the endpoints.
    """
    if src == dst:
        return False
    frontier = [src]
    seen = {src}
    while frontier:
        nxt: list[int] = []
        for u in frontier:
            for v in topology.neighbors(u):
                if link_between(u, v) in cut:
                    continue
                if v == dst:
                    return False
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return True


__all__ = ["verify_refutation"]
