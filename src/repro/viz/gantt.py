"""ASCII Gantt charts of communication schedules and recorded traces."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.switching import CommunicationSchedule

if TYPE_CHECKING:  # pragma: no cover
    from repro.trace.tracer import TraceRecorder


def _bar(intervals: list[tuple[float, float]], frame: float, width: int) -> str:
    """Render busy intervals of ``[0, frame]`` as a fixed-width bar."""
    cells = [" "] * width
    for start, end in intervals:
        first = int(start / frame * width)
        last = max(first, int(end / frame * width) - 1)
        for i in range(first, min(last + 1, width)):
            cells[i] = "#"
    return "".join(cells)


def node_gantt(
    schedule: CommunicationSchedule,
    node: int,
    width: int = 64,
) -> str:
    """A Gantt chart of one node's switching commands over the frame.

    One row per (input port -> output port) connection the node makes;
    ``#`` marks when the connection is held.  Ports are neighbor node ids
    or ``AP`` for the local processor's buffers.

    >>> # doctest-style shape only; see tests for exact assertions
    """
    node_schedule = schedule.node_schedules.get(node)
    if node_schedule is None or not node_schedule.commands:
        return f"node {node}: no switching commands"
    rows: dict[tuple, list[tuple[float, float]]] = {}
    labels: dict[tuple, str] = {}
    for command in node_schedule.commands:
        key = (command.input_port, command.output_port, command.message)
        rows.setdefault(key, []).append((command.time, command.end))
        labels[key] = (
            f"{str(command.input_port):>3}->{str(command.output_port):<3} "
            f"{command.message}"
        )
    label_width = max(len(v) for v in labels.values())
    lines = [
        f"node {node} switching schedule, frame [0, {schedule.tau_in:g}] us"
    ]
    for key in sorted(rows, key=lambda k: min(s for s, _ in rows[k])):
        bar = _bar(rows[key], schedule.tau_in, width)
        lines.append(f"{labels[key]:<{label_width}} |{bar}|")
    return "\n".join(lines)


def link_occupancy_chart(
    schedule: CommunicationSchedule,
    width: int = 64,
    top: int | None = None,
) -> str:
    """Busy bars for every link the schedule uses, busiest first.

    ``top`` limits the output to the N busiest links.
    """
    by_link: dict[tuple, list[tuple[float, float]]] = {}
    for slot in schedule.all_slots():
        for link in slot.links:
            by_link.setdefault(link, []).append((slot.start, slot.end))
    if not by_link:
        return "schedule uses no links"

    def busy_time(intervals):
        return sum(end - start for start, end in intervals)

    ranked = sorted(by_link.items(), key=lambda kv: -busy_time(kv[1]))
    if top is not None:
        ranked = ranked[:top]
    lines = [f"link occupancy over frame [0, {schedule.tau_in:g}] us"]
    for link, intervals in ranked:
        fraction = busy_time(intervals) / schedule.tau_in
        bar = _bar(intervals, schedule.tau_in, width)
        lines.append(f"{str(link):>10} {fraction:5.1%} |{bar}|")
    return "\n".join(lines)


def trace_occupancy_chart(
    recorder: "TraceRecorder",
    top: int | None = None,
) -> str:
    """Busy bars of *measured* link occupancy from a recorded trace.

    Where :func:`link_occupancy_chart` draws the compiled schedule's
    intent (one frame), this draws what a traced run actually did over
    the whole simulation: every ``link``/``occupy`` span the
    :class:`~repro.trace.tracer.TraceRecorder` captured, one row per
    link, busiest first, in bars of 64 cells.
    """
    occupancy = recorder.occupancy()
    if not occupancy:
        return "trace recorded no link occupancy"
    origin = min(s for spans in occupancy.values() for s, _, _ in spans)
    horizon = max(e for spans in occupancy.values() for _, e, _ in spans)
    span = max(horizon - origin, 1e-9)

    def busy_time(spans):
        return sum(end - start for start, end, _ in spans)

    ranked = sorted(occupancy.items(), key=lambda kv: -busy_time(kv[1]))
    if top is not None:
        ranked = ranked[:top]
    lines = [f"traced link occupancy over [{origin:g}, {horizon:g}] us"]
    for track, spans in ranked:
        fraction = busy_time(spans) / span
        intervals = [(s - origin, e - origin) for s, e, _ in spans]
        bar = _bar(intervals, span, 64)
        # SR spans are owned by a message name, WR spans by a
        # (message, invocation) flight key: show the message either way.
        owners = sorted({
            owner if isinstance(owner, str) else owner[0]
            for _, _, owner in spans
            if owner
        })
        suffix = f"  [{', '.join(owners)}]" if owners else ""
        lines.append(f"{track:>10} {fraction:5.1%} |{bar}|{suffix}")
    return "\n".join(lines)
