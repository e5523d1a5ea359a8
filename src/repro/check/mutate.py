"""Seeded schedule corruptions for measuring what each checker kills.

Every mutation takes a valid :class:`~repro.core.switching.
CommunicationSchedule` and returns a corrupted deep copy built *without*
the compiler's validation, modelling a concrete failure mode: a buggy
compiler stage, a torn cache entry, a tampered schedule file, a flipped
bit in a CP's command memory.  The test suite asserts the conformance
analyzer (:func:`repro.check.analyzer.analyze_schedule`) detects at
least 95% of a seeded corpus of these corruptions, and the
``check.kill_matrix`` pin (``tools/pins.py``) counts what the analyzer,
``validate()`` and the executor's replay of Ω each kill on the
benchmark's DVB(5) schedules.

Mutations that edit slots regenerate the node schedules so the
corruption is *consistent* (a wrong schedule, not merely an
inconsistent object) — otherwise every slot mutation would trivially
trip the omega cross-check instead of the invariant it targets.
Command-level mutations (swapped ports, deleted command, retimed
command) edit only the node schedules, modelling per-CP corruption.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable

from repro.core.switching import (
    CommunicationSchedule,
    NodeSchedule,
    TransmissionSlot,
    node_schedules_of,
)


@dataclass(frozen=True)
class MutatedSchedule:
    """A corrupted schedule plus what was done to it."""

    schedule: CommunicationSchedule
    mutation: str
    detail: str


class MutationSkipped(Exception):
    """The schedule offers no site for this mutation (e.g. a single-slot
    schedule cannot host a swap between two messages)."""


def _clone(schedule: CommunicationSchedule) -> CommunicationSchedule:
    """Deep-enough copy: fresh dicts/tuples, shared immutable leaves."""
    return CommunicationSchedule(
        tau_in=schedule.tau_in,
        slots={name: tuple(slots) for name, slots in schedule.slots.items()},
        node_schedules=dict(schedule.node_schedules),
        bounds=schedule.bounds,
        assignment=dict(schedule.assignment),
    )


def _rebuild_omega(schedule: CommunicationSchedule) -> None:
    """Regenerate the node schedules as the projection of the slots."""
    schedule.node_schedules = node_schedules_of(schedule.slots)


def _pick_slot(
    schedule: CommunicationSchedule, rng: random.Random
) -> tuple[str, int, TransmissionSlot]:
    name = rng.choice(sorted(schedule.slots))
    index = rng.randrange(len(schedule.slots[name]))
    return name, index, schedule.slots[name][index]


def _replace_slot(
    schedule: CommunicationSchedule,
    name: str,
    index: int,
    slot: TransmissionSlot,
) -> None:
    slots = list(schedule.slots[name])
    slots[index] = slot
    schedule.slots[name] = tuple(slots)
    _rebuild_omega(schedule)


# -- the mutations -------------------------------------------------------------


def shift_slot(schedule: CommunicationSchedule, rng: random.Random) -> str:
    """Move one slot by roughly a tenth of the frame (consistently, node
    schedules included) — the classic off-by-one-interval compiler bug."""
    name, index, slot = _pick_slot(schedule, rng)
    delta = schedule.tau_in * rng.uniform(0.08, 0.2)
    if slot.start + delta + slot.duration > schedule.tau_in:
        delta = -delta
    shifted = replace(slot, start=max(slot.start + delta, 0.0))
    _replace_slot(schedule, name, index, shifted)
    return f"slot {index} of {name!r} moved by {delta:+.4f}"


def overrun_window_eps(
    schedule: CommunicationSchedule, rng: random.Random
) -> str:
    """Stretch one slot a hair past its window — the off-by-EPS class of
    boundary bug (just beyond the comparison tolerance)."""
    name, index, slot = _pick_slot(schedule, rng)
    excess = 5e-7  # far below a packet time, well above EPS
    stretched = replace(slot, duration=slot.duration + excess)
    _replace_slot(schedule, name, index, stretched)
    return f"slot {index} of {name!r} stretched by {excess:g}"


def swap_crossbar_ports(
    schedule: CommunicationSchedule, rng: random.Random
) -> str:
    """Reverse the input/output ports of one switching command — a CP
    programmed to route the flit backwards."""
    candidates = [
        (node, i)
        for node, ns in schedule.node_schedules.items()
        for i, c in enumerate(ns.commands)
        if c.input_port != c.output_port
    ]
    if not candidates:
        raise MutationSkipped("no commands to swap")
    node, i = candidates[rng.randrange(len(candidates))]
    commands = list(schedule.node_schedules[node].commands)
    c = commands[i]
    commands[i] = replace(
        c, input_port=c.output_port, output_port=c.input_port
    )
    schedule.node_schedules[node] = NodeSchedule(
        node=node, commands=tuple(commands)
    )
    return (
        f"node {node} command {i} ports swapped "
        f"({c.input_port!r}<->{c.output_port!r})"
    )


def delete_command(
    schedule: CommunicationSchedule, rng: random.Random
) -> str:
    """Drop one switching command from one node's schedule — a lost
    entry in a CP's command memory."""
    nodes = [n for n, ns in schedule.node_schedules.items() if ns.commands]
    if not nodes:
        raise MutationSkipped("no node schedules")
    node = rng.choice(sorted(nodes))
    commands = list(schedule.node_schedules[node].commands)
    i = rng.randrange(len(commands))
    dropped = commands.pop(i)
    schedule.node_schedules[node] = NodeSchedule(
        node=node, commands=tuple(commands)
    )
    return f"node {node} lost command {i} ({dropped.message!r})"


def retime_command(
    schedule: CommunicationSchedule, rng: random.Random
) -> str:
    """Move one switching command earlier — a CP clock programmed against
    the wrong frame offset.  Only a command that can move (one not at
    t = 0) is drawn, and the shift reported is the one applied."""
    candidates = [
        (node, i)
        for node, ns in sorted(schedule.node_schedules.items())
        for i, c in enumerate(ns.commands)
        if c.time > 0.0
    ]
    if not candidates:
        raise MutationSkipped("no command after t = 0 to retime")
    node, i = candidates[rng.randrange(len(candidates))]
    commands = list(schedule.node_schedules[node].commands)
    c = commands[i]
    time = max(0.0, c.time - schedule.tau_in * rng.uniform(0.03, 0.1))
    commands[i] = replace(c, time=time)
    schedule.node_schedules[node] = NodeSchedule(
        node=node, commands=tuple(commands)
    )
    return f"node {node} command {i} retimed by {time - c.time:+.4f}"


def drop_slot(schedule: CommunicationSchedule, rng: random.Random) -> str:
    """Delete one transmission slot entirely — the message is silently
    under-scheduled (its tail never transmitted)."""
    name, index, slot = _pick_slot(schedule, rng)
    slots = list(schedule.slots[name])
    slots.pop(index)
    schedule.slots[name] = tuple(slots)
    _rebuild_omega(schedule)
    return f"slot {index} of {name!r} deleted ({slot.duration:.4f}us lost)"


def truncate_slot(
    schedule: CommunicationSchedule, rng: random.Random
) -> str:
    """Halve one slot's duration — partial transmission, missed coverage."""
    name, index, slot = _pick_slot(schedule, rng)
    _replace_slot(
        schedule, name, index, replace(slot, duration=slot.duration / 2)
    )
    return f"slot {index} of {name!r} truncated to half duration"


def reroute_hop(schedule: CommunicationSchedule, rng: random.Random) -> str:
    """Rewrite one intermediate hop of a message's path to another node
    already on the path — a corrupted routing table creating a loop.

    (Rewiring to an *arbitrary* node can by luck produce a different but
    equally valid route, which is not a corruption at all; revisiting a
    path node is a guaranteed invariant violation.)"""
    candidates = [
        name for name, path in schedule.assignment.items()
        if len(path) >= 3 and name in schedule.slots
    ]
    if not candidates:
        raise MutationSkipped("no multi-hop paths to reroute")
    name = rng.choice(sorted(candidates))
    path = list(schedule.assignment[name])
    hop = rng.randrange(1, len(path) - 1)
    replacement = rng.choice(
        [n for i, n in enumerate(path) if i != hop]
    )
    old = path[hop]
    path[hop] = replacement
    schedule.assignment[name] = tuple(path)
    schedule.slots[name] = tuple(
        replace(slot, path=tuple(path)) for slot in schedule.slots[name]
    )
    _rebuild_omega(schedule)
    return f"{name!r} hop {hop} rewired {old}->{replacement}"


def truncate_path(
    schedule: CommunicationSchedule, rng: random.Random
) -> str:
    """Cut a message's slots short of the destination — the flits would
    have to wait in an intermediate node's buffer (buffering violation)."""
    candidates = [
        name for name, path in schedule.assignment.items()
        if len(path) >= 3 and name in schedule.slots
    ]
    if not candidates:
        raise MutationSkipped("no multi-hop paths to truncate")
    name = rng.choice(sorted(candidates))
    partial = tuple(schedule.assignment[name][:-1])
    schedule.slots[name] = tuple(
        replace(slot, path=partial) for slot in schedule.slots[name]
    )
    _rebuild_omega(schedule)
    return f"{name!r} slots truncated to partial path {partial}"


def collide_slots(
    schedule: CommunicationSchedule, rng: random.Random
) -> str:
    """Retime one slot onto another message's window on a shared link —
    direct contention."""
    by_link: dict[tuple[int, int], list[tuple[str, int]]] = {}
    for name, slots in schedule.slots.items():
        for i, slot in enumerate(slots):
            for u, v in zip(slot.path, slot.path[1:]):
                by_link.setdefault((min(u, v), max(u, v)), []).append(
                    (name, i)
                )
    shared = [
        (link, users) for link, users in sorted(by_link.items())
        if len({name for name, _ in users}) >= 2
    ]
    if not shared:
        raise MutationSkipped("no link shared by two messages")
    link, users = shared[rng.randrange(len(shared))]
    (name_a, i_a), (name_b, i_b) = rng.sample(
        sorted({(n, i) for n, i in users}), 2
    )
    victim = schedule.slots[name_b][i_b]
    moved = replace(schedule.slots[name_a][i_a], start=victim.start)
    _replace_slot(schedule, name_a, i_a, moved)
    return (
        f"slot {i_a} of {name_a!r} retimed onto slot {i_b} of "
        f"{name_b!r} (link {link})"
    )


#: Registry of all mutation operators, by stable name.
MUTATIONS: dict[
    str, Callable[[CommunicationSchedule, random.Random], str]
] = {
    "shift-slot": shift_slot,
    "overrun-window-eps": overrun_window_eps,
    "swap-crossbar-ports": swap_crossbar_ports,
    "delete-command": delete_command,
    "retime-command": retime_command,
    "drop-slot": drop_slot,
    "truncate-slot": truncate_slot,
    "reroute-hop": reroute_hop,
    "truncate-path": truncate_path,
    "collide-slots": collide_slots,
}


def mutate_schedule(
    schedule: CommunicationSchedule,
    seed: int,
    mutation: str | None = None,
) -> MutatedSchedule:
    """Apply one seeded corruption and return the corrupted copy.

    ``mutation`` names an operator from :data:`MUTATIONS`; when omitted
    the seed picks one.  Raises :class:`MutationSkipped` when the
    schedule offers no site for the requested operator.
    """
    rng = random.Random(seed)
    name = mutation or rng.choice(sorted(MUTATIONS))
    corrupted = _clone(schedule)
    detail = MUTATIONS[name](corrupted, rng)
    return MutatedSchedule(schedule=corrupted, mutation=name, detail=detail)
