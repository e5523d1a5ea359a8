"""Node switching schedules and the communication schedule Omega
(paper Sections 4.1 and 5.4).

A solved interval produces, per feasible-set slot, a concrete transmission
window for every message in the set.  Each transmission window expands
into one **switching command** per node along the message's path: the
source CP connects its AP output buffer to the first channel, intermediate
CPs connect incoming channel to outgoing channel, and the destination CP
connects the last channel to its AP input buffer.  The collection
``omega_i`` of a node's commands, sorted by time, is that node's switching
schedule; ``Omega = {omega_1 ... omega_N}`` is the communication schedule
the CPs execute independently every period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Mapping, NamedTuple, Sequence

from repro.core.assignment import PathAssignment
from repro.core.interval_scheduling import IntervalSchedule
from repro.core.timebounds import MessageTimeBounds, TimeBoundSet
from repro.errors import ScheduleValidationError
from repro.topology.base import Link
from repro.topology.routing import links_on_path
from repro.units import EPS, le

#: Port sentinel for the node's own application processor buffers.
AP_PORT = "AP"

Port = str | int
"""A CP port: ``AP_PORT`` or the adjacent node id the channel leads to."""


class SwitchCommand(NamedTuple):
    """One crossbar setting at one node: during ``[time, time + duration]``
    route data arriving on ``input_port`` to ``output_port``.

    Times are frame times in ``[0, tau_in]``; the CP executes the same
    schedule every period.  A tuple, so an edited copy is ``._replace``.
    """

    time: float
    duration: float
    input_port: Port
    output_port: Port
    message: str

    @property
    def end(self) -> float:
        return self.time + self.duration


@dataclass(frozen=True)
class NodeSchedule:
    """omega_i: the time-sorted switching commands of one node."""

    node: int
    commands: tuple[SwitchCommand, ...]


class TransmissionSlot(NamedTuple):
    """One contiguous clear-path transmission of (part of) a message.

    A tuple, so an edited copy is ``._replace``, and it equals the plain
    tuple of its fields."""

    message: str
    start: float
    duration: float
    path: tuple[int, ...]

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def links(self) -> tuple[Link, ...]:
        return links_on_path(self.path)


@dataclass
class CommunicationSchedule:
    """Omega plus the slot-level view it was derived from.

    Attributes
    ----------
    tau_in:
        The period (frame length).
    slots:
        ``message -> transmission slots`` covering its full duration.
    node_schedules:
        ``node -> NodeSchedule`` (only nodes with commands appear).
    bounds:
        The time bounds the schedule was computed against.
    assignment:
        The final message->path mapping.
    """

    tau_in: float
    slots: dict[str, tuple[TransmissionSlot, ...]]
    node_schedules: dict[int, NodeSchedule] = field(default_factory=dict)
    bounds: TimeBoundSet | None = None
    assignment: dict[str, tuple[int, ...]] = field(default_factory=dict)

    @property
    def num_commands(self) -> int:
        """Total switching commands across all nodes."""
        return sum(len(ns.commands) for ns in self.node_schedules.values())

    def all_slots(self) -> list[TransmissionSlot]:
        """Every transmission slot, across all messages."""
        return [slot for slots in self.slots.values() for slot in slots]

    @classmethod
    def from_slots(
        cls,
        tau_in: float,
        slots: dict[str, tuple[TransmissionSlot, ...]],
        bounds: TimeBoundSet | None,
        assignment: dict[str, tuple[int, ...]],
    ) -> CommunicationSchedule:
        """The schedule of ``slots``, checked (invariants 0-2 of
        :meth:`validate`, same errors) in the one pass that projects them
        onto Ω, so invariant 3 holds by construction."""
        node_schedules = _check_slots(tau_in, slots, bounds)
        return cls(tau_in, slots, node_schedules, bounds, assignment)

    def validate(self) -> None:
        """Machine-check the schedule's invariants, in one pass over the slots.

        0. the frame: ``tau_in`` is a positive finite time, every slot
           has a finite start and a finite duration longer than ``EPS``,
           and every path is a route of two or more distinct nodes;
        1. every message's slots lie inside its timing windows and sum to
           exactly its transmission duration (deadlines are guaranteed),
           and every message with bounds has slots, every message with
           slots has bounds;
        2. no two slots ever share a link (contention-freedom; every
           transmission holds its whole path, so this also gives
           deadlock-freedom, and, a channel port being a half-duplex
           link, no crossbar port ever carries two commands at once);
        3. the node schedules are exactly the per-node projection of the
           slots.

        A schedule built by :meth:`from_slots` holds invariant 3 by
        construction; this proves all four for an Ω handed in.  Raises
        :class:`~repro.errors.ScheduleValidationError` on the first
        violation, checked in that order.
        """
        derived = {
            (*cmd, node)
            for node, ns in _check_slots(
                self.tau_in, self.slots, self.bounds
            ).items()
            for cmd in ns.commands
        }
        expected = {
            (*cmd, node)
            for node, ns in self.node_schedules.items()
            for cmd in ns.commands
        }
        if expected != derived:
            missing = derived - expected
            spurious = expected - derived
            raise ScheduleValidationError(
                f"node schedules do not match slots: missing={missing} "
                f"spurious={spurious}"
            )


#: Per CP along a path: the ``append`` of its node's command row, and
#: the input and output port it connects.
_Hops = tuple[tuple[Callable[[SwitchCommand], None], Port, Port], ...]


def _check_slots(
    tau_in: float,
    slots: Mapping[str, Sequence[TransmissionSlot]],
    bounds: TimeBoundSet | None,
) -> dict[int, NodeSchedule]:
    """Invariants 0-2 of :meth:`CommunicationSchedule.validate` over
    ``slots``, in one pass that also gathers what projecting them onto
    Ω needs.  Each distinct path's links and hops are derived once."""
    if not (math.isfinite(tau_in) and tau_in > 0):
        raise ScheduleValidationError(
            f"period tau_in={tau_in!r} is not a positive finite time"
        )
    #: ``link -> (start, end, message)`` of each slot crossing it.
    by_link: dict[Link, list[tuple[float, float, str]]] = {}
    rows: dict[int, list[SwitchCommand]] = {}
    links: dict[tuple[int, ...], tuple[Link, ...]] = {}
    hops: dict[tuple[int, ...], _Hops] = {}
    for name, message_slots in slots.items():
        for _, start, duration, _ in message_slots:
            if not (
                math.isfinite(start)
                and math.isfinite(duration)
                and duration > EPS
            ):
                raise ScheduleValidationError(
                    f"message {name!r}: slot of start {start!r} "
                    f"and duration {duration!r} is not a finite "
                    f"span longer than {EPS:g}"
                )
        if bounds is not None:
            bound = bounds.bounds.get(name)
            if bound is None:
                raise ScheduleValidationError(
                    f"message {name!r}: slots but no time bounds"
                )
            _check_coverage(bound, name, message_slots)
        for _, start, duration, path in message_slots:
            path_links = links.get(path)
            if path_links is None:
                if not 2 <= len(set(path)) == len(path):
                    raise ScheduleValidationError(
                        f"message {name!r}: path {path} is not a "
                        "route of two or more distinct nodes"
                    )
                path_links = links[path] = links_on_path(path)
                hops[path] = _path_hops(path, rows)
            span = (start, start + duration, name)
            for link in path_links:
                booked = by_link.get(link)
                if booked is None:
                    by_link[link] = [span]
                else:
                    booked.append(span)
    if bounds is not None:
        for name, bound in bounds.bounds.items():
            if name not in slots:
                _check_coverage(bound, name, ())
    for link, booked in by_link.items():
        booked.sort(key=itemgetter(0))
        for first, second in zip(booked, booked[1:]):
            if second[0] < first[1] - EPS:
                raise ScheduleValidationError(
                    f"link {link} double-booked: {first[2]!r} "
                    f"[{first[0]:.6f},{first[1]:.6f}] overlaps "
                    f"{second[2]!r} "
                    f"[{second[0]:.6f},{second[1]:.6f}]"
                )
    return _project(slots, hops, rows)


def _check_coverage(
    bound: MessageTimeBounds,
    name: str,
    slots: Sequence[TransmissionSlot],
) -> None:
    """Invariant 1 for one message: ``bound.contains`` on every slot."""
    total = sum(s.duration for s in slots)
    if abs(total - bound.duration) > 1e-6 * max(1.0, bound.duration):
        raise ScheduleValidationError(
            f"message {name!r}: scheduled {total:.6f} of "
            f"{bound.duration:.6f} required transmission time"
        )
    windows = bound.windows
    for _, start, duration, _ in slots:
        end = start + duration
        for ws, we in windows:
            if ws <= start + EPS and end <= we + EPS:
                break
        else:
            raise ScheduleValidationError(
                f"message {name!r}: slot [{start:.6f}, "
                f"{end:.6f}] outside windows {bound.windows}"
            )


def _path_hops(
    path: tuple[int, ...], rows: dict[int, list[SwitchCommand]]
) -> _Hops:
    """The crossbar setting each node of ``path`` makes for it: the
    source connects its AP output buffer, an intermediate node its
    incoming channel to the outgoing one, the destination the last
    channel to its AP input buffer.  A node new to ``rows`` gets its
    row here, so rows appear in the order the slots first reach them."""
    last = len(path) - 1
    return tuple(
        (
            rows.setdefault(node, []).append,
            AP_PORT if position == 0 else path[position - 1],
            AP_PORT if position == last else path[position + 1],
        )
        for position, node in enumerate(path)
    )


def _project(
    slots: Mapping[str, Sequence[TransmissionSlot]],
    hops: Mapping[tuple[int, ...], _Hops],
    rows: dict[int, list[SwitchCommand]],
) -> dict[int, NodeSchedule]:
    """Ω: each slot's command at each hop of its path (``hops``, whose
    appends fill ``rows``), projected in ``(start, message)`` order, so
    every node's row comes out in that order, ties in slot order."""
    ordered = sorted(
        (slot for message_slots in slots.values() for slot in message_slots),
        key=itemgetter(1, 0),
    )
    command = tuple.__new__
    for message, start, duration, path in ordered:
        for append, input_port, output_port in hops[path]:
            append(command(SwitchCommand, (
                start, duration, input_port, output_port, message
            )))
    return {
        node: NodeSchedule(node, tuple(commands))
        for node, commands in rows.items()
    }


def node_schedules_of(
    slots: Mapping[str, Sequence[TransmissionSlot]],
) -> dict[int, NodeSchedule]:
    """Omega as the per-node projection of ``slots``, unchecked: each
    node's commands in ``(time, message)`` order (nodes without any are
    absent)."""
    rows: dict[int, list[SwitchCommand]] = {}
    hops: dict[tuple[int, ...], _Hops] = {}
    for message_slots in slots.values():
        for slot in message_slots:
            if slot.path not in hops:
                hops[slot.path] = _path_hops(slot.path, rows)
    return _project(slots, hops, rows)


def build_schedule(
    bounds: TimeBoundSet,
    assignment: PathAssignment,
    interval_schedules: list[dict[int, IntervalSchedule]],
) -> CommunicationSchedule:
    """Assemble Omega from the per-subset interval schedules.

    Within each interval every subset's feasible-set slots are packed from
    the interval start; different subsets are link-disjoint inside a
    shared interval (see :mod:`repro.core.subsets`), so their slots may
    overlap in time.

    The result is checked as it is built
    (:meth:`CommunicationSchedule.from_slots`).
    """
    slots: dict[str, list[TransmissionSlot]] = {
        name: [] for name in assignment.messages
    }
    paths = assignment.as_dict()
    slot = tuple.__new__
    for subset_schedules in interval_schedules:
        for k, schedule in subset_schedules.items():
            start, end = bounds.intervals.interval(k)
            cursor = start
            for feasible_slot in schedule.slots:
                duration = feasible_slot.duration
                for name in sorted(feasible_slot.messages):
                    slots[name].append(slot(TransmissionSlot, (
                        name, cursor, duration, paths[name]
                    )))
                cursor += duration
            if not le(cursor, end):
                raise ScheduleValidationError(
                    f"interval {k} packing overruns: ends {cursor:.6f} > "
                    f"{end:.6f}"
                )

    return CommunicationSchedule.from_slots(
        bounds.tau_in,
        {name: tuple(s) for name, s in slots.items()},
        bounds,
        paths,
    )
