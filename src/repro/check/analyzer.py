"""Static conformance analysis of a communication schedule.

:func:`analyze_schedule` re-derives every invariant the paper's
guarantee rests on — from scratch, using only the *serialized* schedule
content (period, slots, assignment, optional bounds and node schedules)
plus the topology's link set.  It deliberately shares **no logic** with
the compiler's own :meth:`~repro.core.switching.CommunicationSchedule.
validate`: the per-node command projection, the window recomputation and
the occupancy sweep are all independent implementations, so a bug in
the compiler's data-structure helpers cannot silently excuse itself
here.

Checks (each yields :class:`Finding` records; the analyzer never raises
on schedule content):

``frame``
    The period is a positive finite time, and every transmission slot
    has a finite start and duration, lies inside the frame
    ``[0, tau_in]`` and has positive duration.
``path``
    Every message has an assigned path; the path is continuous
    source→destination over existing topology links and visits no node
    twice; every slot carries the full assigned path (a slot on a strict
    sub-path would park the message at an intermediate node — a
    buffering violation); with a task allocation, path endpoints match
    the placed source and destination tasks, and every inter-node
    message is present in the schedule.
``link``
    Continuous-time link exclusivity: no two slots ever overlap on a
    shared link.  Occupancy intervals are normalized onto the circular
    frame, so a slot written across the ``tau_in`` boundary is split and
    checked on both sides.  Every transmission holds all links of its
    path for its whole slot, so this one check also gives crossbar
    port-freedom (a channel port is a half-duplex link, and ``path``
    rejects a hop that is no link or revisits a node) and
    deadlock-freedom (no transmission ever waits while holding a link).
``omega``
    When the schedule carries node schedules, they must be exactly the
    per-node projection of the slots — a swapped input/output port, a
    deleted command or a retimed command all surface here.
``window``
    Window containment against *independently recomputed* time bounds
    (release/deadline wrapped onto the frame from the TFG timing when
    given, else the schedule's embedded bounds), plus duration coverage:
    a message's slots must sum to exactly its transmission requirement.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from os import PathLike
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.topology.base import Topology
from repro.units import EPS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.switching import CommunicationSchedule
    from repro.tfg.analysis import TFGTiming
    from repro.trace.tracer import Tracer

#: Finding severities.
SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

#: Sentinel port name for the node's application-processor buffers.
#: (Redeclared here on purpose: the analyzer does not import the
#: compiler's switching module.)
_AP = "AP"


@dataclass(frozen=True)
class Finding:
    """One conformance violation (or advisory) in a schedule.

    Attributes
    ----------
    severity:
        :data:`SEVERITY_ERROR` for a broken invariant,
        :data:`SEVERITY_WARNING` for an advisory.
    code:
        Stable machine-readable identifier of the violated invariant
        (``"link-overlap"``, ``"window-overrun"``, ...).
    detail:
        Human-readable description.
    message:
        Name of the message involved, when one is identifiable.
    link:
        The ``(u, v)`` link involved, when one is identifiable.
    span:
        The ``(start, end)`` frame-time range of the violation, when one
        is identifiable.
    """

    severity: str
    code: str
    detail: str
    message: str | None = None
    link: tuple[int, int] | None = None
    span: tuple[float, float] | None = None

    def __str__(self) -> str:
        where = []
        if self.message is not None:
            where.append(f"message={self.message}")
        if self.link is not None:
            where.append(f"link={self.link}")
        if self.span is not None:
            where.append(f"t=[{self.span[0]:.6f},{self.span[1]:.6f}]")
        suffix = f" ({', '.join(where)})" if where else ""
        return f"[{self.severity}] {self.code}: {self.detail}{suffix}"

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready payload; tuples become lists, nothing via repr."""
        return {
            "severity": self.severity,
            "code": self.code,
            "detail": self.detail,
            "message": self.message,
            "link": list(self.link) if self.link is not None else None,
            "span": list(self.span) if self.span is not None else None,
        }


@dataclass
class ConformanceReport:
    """The analyzer's verdict: structured findings plus what was checked.

    ``ok`` is True when no *error*-severity finding exists (warnings do
    not fail a schedule).
    """

    tau_in: float
    findings: tuple[Finding, ...] = ()
    checks: tuple[str, ...] = ()

    @property
    def errors(self) -> tuple[Finding, ...]:
        return tuple(
            f for f in self.findings if f.severity == SEVERITY_ERROR
        )

    @property
    def ok(self) -> bool:
        return not self.errors

    def counts(self) -> dict[str, int]:
        """``finding code -> occurrence count``."""
        return dict(Counter(f.code for f in self.findings))

    def summary(self) -> str:
        """One line per finding, prefixed by the overall verdict."""
        verdict = (
            "CONFORMANT"
            if self.ok
            else f"NON-CONFORMANT ({len(self.errors)} errors)"
        )
        lines = [f"{verdict}: checks run: {', '.join(self.checks)}"]
        lines.extend(str(f) for f in self.findings)
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready payload (wire transfer, ``--json`` output)."""
        return {
            "tau_in": self.tau_in,
            "ok": self.ok,
            "findings": [f.to_dict() for f in self.findings],
            "checks": list(self.checks),
        }

    def emit(self, tracer: "Tracer") -> int:
        """Emit every finding as a ``check``-category trace instant.

        The event lands on a ``check:<code>`` track at the finding's
        frame time (0 when the finding has no time range), carrying the
        severity and location as structured args.  Returns the number of
        events emitted.
        """
        if not tracer.enabled:
            return 0
        for f in self.findings:
            tracer.instant(
                "check",
                f.code,
                f.span[0] if f.span is not None else 0.0,
                track=f"check:{f.code}",
                severity=f.severity,
                detail=f.detail,
                message=f.message,
                link=None if f.link is None else str(f.link),
            )
        return len(self.findings)


# -- independent geometry helpers --------------------------------------------


def _wrap_segments(
    start: float, end: float, tau_in: float
) -> list[tuple[float, float]]:
    """Normalize an interval onto the circular frame ``[0, tau_in]``.

    Intervals inside the frame pass through; an interval written across
    the ``tau_in`` boundary is split into its tail and wrapped head so
    the occupancy sweep sees both sides.
    """
    if end <= tau_in + EPS:
        return [(start, min(end, tau_in))]
    return [(start, tau_in), (0.0, end - tau_in)]


def _overlap(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Overlap length of two frame intervals (0 when disjoint)."""
    return min(a[1], b[1]) - max(a[0], b[0])


def _sweep_conflicts(
    intervals: list[tuple[float, float, str]],
) -> Iterable[tuple[tuple[float, float, str], tuple[float, float, str]]]:
    """Yield pairs of labelled intervals overlapping beyond EPS.

    Plain sort-and-scan over frame-normalized intervals; callers pass
    intervals already split at the frame boundary, so linear overlap is
    circular overlap.
    """
    ordered = sorted(intervals)
    active: list[tuple[float, float, str]] = []
    for item in ordered:
        start = item[0]
        active = [a for a in active if a[1] > start + EPS]
        for earlier in active:
            if _overlap((earlier[0], earlier[1]), (item[0], item[1])) > EPS:
                yield earlier, item
        active.append(item)


#: An Ω command as the ``omega`` family compares it: ``(node, time, end,
#: input port, output port, message)``, times rounded to 1e-9, ports as text.
_CommandKey = tuple[int, float, float, str, str, str]


def _derived_commands(schedule: "CommunicationSchedule") -> Counter[_CommandKey]:
    """Re-derive every node's switching commands from the slots.

    Independent re-implementation of the slot→command projection: at the
    path's source the AP buffer feeds the first channel, intermediate
    nodes bridge incoming to outgoing channel, and the destination drains
    the last channel into its AP buffer.  Each slot's times are rounded
    once and each path's ports derived once; the keys are counted node by
    node.
    """
    per_node: dict[int, list[_CommandKey]] = {}
    hops: dict[tuple[int, ...], tuple[tuple[int, str, str], ...]] = {}
    for name, slots in schedule.slots.items():
        for slot in slots:
            path = slot.path
            path_hops = hops.get(path)
            if path_hops is None:
                last = len(path) - 1
                path_hops = hops[path] = tuple(
                    (node,
                     str(_AP if position == 0 else path[position - 1]),
                     str(_AP if position == last else path[position + 1]))
                    for position, node in enumerate(path)
                )
            t, e = round(slot.start, 9), round(slot.end, 9)
            for node, inp, out in path_hops:
                per_node.setdefault(node, []).append((node, t, e, inp, out, name))
    return Counter(key for keys in per_node.values() for key in keys)


def _recompute_windows(
    timing: "TFGTiming",
    tau_in: float,
    names: Iterable[str],
    sync_margin: float,
) -> dict[str, tuple[float, float, float, tuple[tuple[float, float], ...]]]:
    """Independently recompute each message's time bounds.

    From first principles (paper Section 4): the release is the source
    task's ASAP finish wrapped onto the frame, the deadline is one
    message window later, and a deadline past the frame edge wraps into
    two segments ``[0, d] + [r, tau_in]``.  Returns
    ``name -> (release, deadline, duration, window segments)``.
    """
    asap = timing.asap_schedule()
    window = timing.message_window
    out: dict[
        str, tuple[float, float, float, tuple[tuple[float, float], ...]]
    ] = {}
    for name in names:
        message = timing.tfg.message(name)
        release = asap[message.src][1] % tau_in
        if release > tau_in - EPS or release < EPS:
            release = 0.0
        duration = message.size_bytes / timing.bandwidth + sync_margin
        deadline_abs = release + window
        if deadline_abs <= tau_in + EPS:
            deadline = min(deadline_abs, tau_in)
            segments: tuple[tuple[float, float], ...] = ((release, deadline),)
        else:
            deadline = deadline_abs - tau_in
            segments = ((0.0, deadline), (release, tau_in))
        out[name] = (release, deadline, duration, segments)
    return out


def _inside_some_segment(
    start: float, end: float, segments: Iterable[tuple[float, float]]
) -> bool:
    return any(
        ws - EPS <= start and end <= we + EPS for ws, we in segments
    )


# -- the analyzer -------------------------------------------------------------


@dataclass
class _Analysis:
    """Mutable working state of one analysis run."""

    schedule: "CommunicationSchedule"
    topology: Topology
    findings: list[Finding] = field(default_factory=list)

    def add(self, severity: str, code: str, detail: str, **where: Any) -> None:
        self.findings.append(Finding(severity, code, detail, **where))


def analyze_schedule(
    schedule: "CommunicationSchedule",
    topology: Topology,
    timing: "TFGTiming | None" = None,
    allocation: Mapping[str, int] | None = None,
    sync_margin: float = 0.0,
    tracer: "Tracer | None" = None,
) -> ConformanceReport:
    """Statically verify a schedule's SR guarantees from scratch.

    Parameters
    ----------
    schedule:
        The schedule under test.  Only its serialized content is read
        (``tau_in``, slots, assignment, and — when present — bounds and
        node schedules); no compiler helper is invoked.
    topology:
        The machine; supplies the link set.
    timing:
        Optional TFG timing.  When given, the message windows are
        recomputed independently and cross-checked against the
        schedule's embedded bounds, and schedule completeness (every
        inter-node message scheduled) is verified.
    allocation:
        Optional task→node placement; with ``timing``, enables endpoint
        and completeness checks.
    sync_margin:
        The compiler's per-message clock-synchronization guard
        (:attr:`~repro.core.compiler.CompilerConfig.sync_margin`), added
        to the independently recomputed transmission requirement.
    tracer:
        Optional tracer; findings are emitted as ``check``-category
        instants (see :meth:`ConformanceReport.emit`).

    Returns a :class:`ConformanceReport`; never raises on schedule
    content (malformed values become findings).
    """
    state = _Analysis(schedule, topology)
    tau_in = float(schedule.tau_in)
    if not (math.isfinite(tau_in) and tau_in > 0):
        state.add(
            SEVERITY_ERROR, "bad-frame",
            f"period {tau_in!r} is not a positive finite time",
        )
        return ConformanceReport(tau_in, tuple(state.findings), ("frame",))

    _check_frame(state, tau_in)
    _check_paths(state, timing, allocation)
    _check_link_exclusivity(state, tau_in)
    _check_omega(state)
    _check_windows(state, tau_in, timing, sync_margin)

    checks = ("frame", "path", "link", "omega", "window")
    report = ConformanceReport(tau_in, tuple(state.findings), checks)
    if tracer is not None:
        report.emit(tracer)
    return report


def analyze_file(
    path: "str | PathLike[str]", topology: Topology, **kwargs: Any
) -> ConformanceReport:
    """Analyze a schedule previously saved with
    :func:`repro.core.io.save_schedule`.

    The file is read by the loader's own parse
    (:func:`repro.core.io.parse_schedule`), without its re-validation (a
    schedule the compiler's checks would reject must still be
    analyzable), then handed to :func:`analyze_schedule`.  A field that
    does not parse raises the loader's
    :class:`~repro.errors.ScheduleValidationError`.
    """
    import json
    from pathlib import Path

    from repro.core.io import parse_schedule

    schedule = parse_schedule(json.loads(Path(path).read_text()))
    return analyze_schedule(schedule, topology, **kwargs)


# -- individual checks ---------------------------------------------------------


def _check_frame(state: _Analysis, tau_in: float) -> None:
    for name, slots in state.schedule.slots.items():
        for slot in slots:
            if not (math.isfinite(slot.start) and math.isfinite(slot.duration)):
                state.add(
                    SEVERITY_ERROR, "slot-not-finite",
                    f"slot of start {slot.start!r} and duration "
                    f"{slot.duration!r}",
                    message=name,
                )
                continue
            if slot.duration <= EPS:
                state.add(
                    SEVERITY_ERROR, "slot-empty",
                    f"slot of duration {slot.duration!r}",
                    message=name, span=(slot.start, slot.end),
                )
            if slot.start < -EPS or slot.end > tau_in + EPS:
                state.add(
                    SEVERITY_ERROR, "slot-outside-frame",
                    f"slot [{slot.start:.6f}, {slot.end:.6f}] outside the "
                    f"frame [0, {tau_in:.6f}]",
                    message=name, span=(slot.start, slot.end),
                )


def _check_paths(
    state: _Analysis,
    timing: "TFGTiming | None",
    allocation: Mapping[str, int] | None,
) -> None:
    links = set(state.topology.links)
    assignment = state.schedule.assignment
    for name, slots in state.schedule.slots.items():
        assigned = tuple(assignment.get(name, ()))
        if len(assigned) < 2:
            state.add(
                SEVERITY_ERROR, "path-missing",
                "message has no usable assigned path", message=name,
            )
            continue
        if len(set(assigned)) != len(assigned):
            state.add(
                SEVERITY_ERROR, "path-revisits-node",
                f"assigned path {assigned} visits a node twice",
                message=name,
            )
        for u, v in zip(assigned, assigned[1:]):
            if u == v or (min(u, v), max(u, v)) not in links:
                state.add(
                    SEVERITY_ERROR, "path-discontinuous",
                    f"hop {u}->{v} of {assigned} is not a topology link",
                    message=name, link=(min(u, v), max(u, v)),
                )
        for slot in slots:
            path = tuple(slot.path)
            if path == assigned:
                continue
            if _is_subpath(path, assigned):
                state.add(
                    SEVERITY_ERROR, "buffering-violation",
                    f"slot covers only {path} of the assigned path "
                    f"{assigned}: the message would be buffered at an "
                    "intermediate node between slots",
                    message=name, span=(slot.start, slot.end),
                )
            else:
                state.add(
                    SEVERITY_ERROR, "path-mismatch",
                    f"slot path {path} differs from the assigned path "
                    f"{assigned}",
                    message=name, span=(slot.start, slot.end),
                )
    if timing is None or allocation is None:
        return
    for message in timing.tfg.messages:
        src = allocation.get(message.src)
        dst = allocation.get(message.dst)
        if src is None or dst is None or src == dst:
            continue  # local message: never enters the network
        if message.name not in state.schedule.slots:
            state.add(
                SEVERITY_ERROR, "missing-message",
                f"inter-node message (nodes {src}->{dst}) absent from the "
                "schedule", message=message.name,
            )
            continue
        assigned = tuple(assignment.get(message.name, ()))
        if assigned and (assigned[0] != src or assigned[-1] != dst):
            state.add(
                SEVERITY_ERROR, "endpoint-mismatch",
                f"path {assigned} does not join the placed source (node "
                f"{src}) to the placed destination (node {dst})",
                message=message.name,
            )


def _is_subpath(candidate: tuple[int, ...], full: tuple[int, ...]) -> bool:
    """True when ``candidate`` is a strict contiguous sub-path of ``full``."""
    n, m = len(candidate), len(full)
    if n >= m or n < 2:
        return False
    return any(candidate == full[i:i + n] for i in range(m - n + 1))


def _check_link_exclusivity(state: _Analysis, tau_in: float) -> None:
    by_link: dict[tuple[int, int], list[tuple[float, float, str]]] = {}
    for name, slots in state.schedule.slots.items():
        for slot in slots:
            for u, v in zip(slot.path, slot.path[1:]):
                link = (min(u, v), max(u, v))
                for seg in _wrap_segments(slot.start, slot.end, tau_in):
                    by_link.setdefault(link, []).append((*seg, name))
    for link, intervals in by_link.items():
        for first, second in _sweep_conflicts(intervals):
            code = (
                "message-self-overlap"
                if first[2] == second[2]
                else "link-overlap"
            )
            state.add(
                SEVERITY_ERROR, code,
                f"{first[2]!r} [{first[0]:.6f},{first[1]:.6f}] and "
                f"{second[2]!r} [{second[0]:.6f},{second[1]:.6f}] both "
                f"occupy the link",
                message=second[2], link=link,
                span=(max(first[0], second[0]), min(first[1], second[1])),
            )


def _check_omega(state: _Analysis) -> None:
    if not state.schedule.node_schedules:
        return
    derived = _derived_commands(state.schedule)
    declared = Counter(
        (node, round(t, 9), round(t + d, 9), str(i), str(o), m)
        for node, ns in state.schedule.node_schedules.items()
        for t, d, i, o, m in ns.commands
    )
    for key, count in (derived - declared).items():
        node, t, e, inp, out, name = key
        state.add(
            SEVERITY_ERROR, "omega-missing-command",
            f"node {node}'s schedule lacks {count} command(s) {inp}->{out} "
            "required by the slots",
            message=name, span=(t, e),
        )
    for key, count in (declared - derived).items():
        node, t, e, inp, out, name = key
        state.add(
            SEVERITY_ERROR, "omega-spurious-command",
            f"node {node}'s schedule declares {count} command(s) "
            f"{inp}->{out} that no slot requires (retimed, swapped or forged)",
            message=name, span=(t, e),
        )


def _check_windows(
    state: _Analysis,
    tau_in: float,
    timing: "TFGTiming | None",
    sync_margin: float,
) -> None:
    embedded = state.schedule.bounds
    recomputed = None
    if timing is not None:
        recomputed = _recompute_windows(
            timing, tau_in, state.schedule.slots, sync_margin
        )
        if embedded is not None:
            for name, (release, deadline, duration, segments) in (
                recomputed.items()
            ):
                stored = embedded.bounds.get(name)
                if stored is None:
                    continue
                drift = max(
                    abs(stored.release - release),
                    abs(stored.deadline - deadline),
                    abs(stored.duration - duration),
                )
                if drift > 1e-6:
                    state.add(
                        SEVERITY_ERROR, "bounds-mismatch",
                        f"embedded bounds (r={stored.release:.6f}, "
                        f"d={stored.deadline:.6f}, "
                        f"dur={stored.duration:.6f}) disagree with the "
                        f"recomputed (r={release:.6f}, d={deadline:.6f}, "
                        f"dur={duration:.6f})",
                        message=name,
                    )
    for name, slots in state.schedule.slots.items():
        if recomputed is not None:
            _, _, duration, segments = recomputed[name]
        elif embedded is not None and name in embedded.bounds:
            b = embedded.bounds[name]
            duration, segments = b.duration, b.windows
        else:
            continue  # nothing to check containment against
        total = sum(s.duration for s in slots)
        if total < duration - 1e-6 * max(1.0, duration):
            state.add(
                SEVERITY_ERROR, "under-scheduled",
                f"slots cover {total:.6f} of the required {duration:.6f} "
                "transmission time", message=name,
            )
        elif total > duration + 1e-6 * max(1.0, duration):
            state.add(
                SEVERITY_ERROR, "over-scheduled",
                f"slots cover {total:.6f}, more than the required "
                f"{duration:.6f} transmission time", message=name,
            )
        for slot in slots:
            if not _inside_some_segment(slot.start, slot.end, segments):
                state.add(
                    SEVERITY_ERROR, "window-overrun",
                    f"slot [{slot.start:.6f}, {slot.end:.6f}] escapes the "
                    f"release/deadline windows {tuple(segments)}",
                    message=name, span=(slot.start, slot.end),
                )
