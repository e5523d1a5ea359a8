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

from dataclasses import dataclass, field

from repro.core.assignment import PathAssignment
from repro.core.interval_scheduling import IntervalSchedule
from repro.core.timebounds import TimeBoundSet
from repro.errors import ScheduleValidationError
from repro.topology.base import Link, link_between
from repro.units import EPS, le

#: Port sentinel for the node's own application processor buffers.
AP_PORT = "AP"

Port = str | int
"""A CP port: ``AP_PORT`` or the adjacent node id the channel leads to."""


@dataclass(frozen=True)
class SwitchCommand:
    """One crossbar setting at one node: during ``[time, time + duration]``
    route data arriving on ``input_port`` to ``output_port``.

    Times are frame times in ``[0, tau_in]``; the CP executes the same
    schedule every period.
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


@dataclass(frozen=True)
class TransmissionSlot:
    """One contiguous clear-path transmission of (part of) a message."""

    message: str
    start: float
    duration: float
    path: tuple[int, ...]

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def links(self) -> tuple[Link, ...]:
        return tuple(
            link_between(u, v) for u, v in zip(self.path, self.path[1:])
        )


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

    # -- static validation ------------------------------------------------

    def validate(self) -> None:
        """Machine-check the schedule's invariants.

        1. every message's slots lie inside its timing windows and sum to
           exactly its transmission duration (deadlines are guaranteed);
        2. no two slots ever share a link (contention-freedom, which also
           makes deadlock a non-issue: every transmission has a clear
           path);
        3. the node schedules are exactly the per-node projection of the
           slots, and no node connects one channel to two places at once.

        Raises :class:`~repro.errors.ScheduleValidationError` on the first
        violation.
        """
        self._validate_slot_coverage()
        self._validate_link_exclusivity()
        self._validate_node_schedules()

    def _validate_slot_coverage(self) -> None:
        if self.bounds is None:
            return
        for name, slots in self.slots.items():
            b = self.bounds.bounds[name]
            total = sum(s.duration for s in slots)
            if abs(total - b.duration) > 1e-6 * max(1.0, b.duration):
                raise ScheduleValidationError(
                    f"message {name!r}: scheduled {total:.6f} of "
                    f"{b.duration:.6f} required transmission time"
                )
            for slot in slots:
                if not b.contains(slot.start, slot.end):
                    raise ScheduleValidationError(
                        f"message {name!r}: slot [{slot.start:.6f}, "
                        f"{slot.end:.6f}] outside windows {b.windows}"
                    )

    def _validate_link_exclusivity(self) -> None:
        by_link: dict[Link, list[TransmissionSlot]] = {}
        for slot in self.all_slots():
            for link in slot.links:
                by_link.setdefault(link, []).append(slot)
        for link, slots in by_link.items():
            slots.sort(key=lambda s: s.start)
            for first, second in zip(slots, slots[1:]):
                if second.start < first.end - EPS:
                    raise ScheduleValidationError(
                        f"link {link} double-booked: {first.message!r} "
                        f"[{first.start:.6f},{first.end:.6f}] overlaps "
                        f"{second.message!r} "
                        f"[{second.start:.6f},{second.end:.6f}]"
                    )

    def _validate_node_schedules(self) -> None:
        expected = {
            (cmd.time, cmd.duration, cmd.input_port, cmd.output_port,
             cmd.message, node)
            for node, ns in self.node_schedules.items()
            for cmd in ns.commands
        }
        derived = set()
        for slot in self.all_slots():
            for cmd, node in _slot_commands(slot):
                derived.add(
                    (cmd.time, cmd.duration, cmd.input_port,
                     cmd.output_port, cmd.message, node)
                )
        if expected != derived:
            missing = derived - expected
            spurious = expected - derived
            raise ScheduleValidationError(
                f"node schedules do not match slots: missing={missing} "
                f"spurious={spurious}"
            )
        # Channel-port exclusivity per node (AP buffers are per-channel and
        # never conflict; see paper Fig. 2).
        for node, ns in self.node_schedules.items():
            usage: dict[Port, list[SwitchCommand]] = {}
            for cmd in ns.commands:
                for port in (cmd.input_port, cmd.output_port):
                    if port == AP_PORT:
                        continue
                    usage.setdefault(port, []).append(cmd)
            for port, commands in usage.items():
                commands.sort(key=lambda c: c.time)
                for first, second in zip(commands, commands[1:]):
                    if second.time < first.end - EPS:
                        raise ScheduleValidationError(
                            f"node {node}: channel to {port} used by "
                            f"{first.message!r} and {second.message!r} "
                            "simultaneously"
                        )


def _slot_commands(slot: TransmissionSlot):
    """The per-node switching commands realizing one transmission slot."""
    path = slot.path
    for position, node in enumerate(path):
        input_port: Port = AP_PORT if position == 0 else path[position - 1]
        output_port: Port = (
            AP_PORT if position == len(path) - 1 else path[position + 1]
        )
        yield (
            SwitchCommand(
                time=slot.start,
                duration=slot.duration,
                input_port=input_port,
                output_port=output_port,
                message=slot.message,
            ),
            node,
        )


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

    The result is validated before being returned.
    """
    slots: dict[str, list[TransmissionSlot]] = {
        name: [] for name in assignment.messages
    }
    for subset_schedules in interval_schedules:
        for k, schedule in subset_schedules.items():
            start, end = bounds.intervals.interval(k)
            cursor = start
            for feasible_slot in schedule.slots:
                for name in sorted(feasible_slot.messages):
                    slots[name].append(
                        TransmissionSlot(
                            message=name,
                            start=cursor,
                            duration=feasible_slot.duration,
                            path=assignment.path(name),
                        )
                    )
                cursor += feasible_slot.duration
            if not le(cursor, end):
                raise ScheduleValidationError(
                    f"interval {k} packing overruns: ends {cursor:.6f} > "
                    f"{end:.6f}"
                )

    node_commands: dict[int, list[SwitchCommand]] = {}
    frozen_slots = {name: tuple(s) for name, s in slots.items()}
    for message_slots in frozen_slots.values():
        for slot in message_slots:
            for cmd, node in _slot_commands(slot):
                node_commands.setdefault(node, []).append(cmd)

    node_schedules = {
        node: NodeSchedule(
            node=node,
            commands=tuple(sorted(commands, key=lambda c: (c.time, c.message))),
        )
        for node, commands in node_commands.items()
    }
    schedule = CommunicationSchedule(
        tau_in=bounds.tau_in,
        slots=frozen_slots,
        node_schedules=node_schedules,
        bounds=bounds,
        assignment=assignment.as_dict(),
    )
    schedule.validate()
    return schedule
