"""Seeded schedule corruptions for measuring what each checker kills.

Every mutation takes a valid :class:`~repro.core.switching.
CommunicationSchedule` and returns a corrupted copy built *without* the
compiler's validation, modelling a concrete failure mode: a buggy
compiler stage, a torn cache entry, a tampered schedule file, a flipped
bit in a CP's command memory.

A slot operator (:data:`SLOT_MUTATIONS`) builds a new schedule from
corrupted slots; its Ω is their projection, so the corruption is a
consistent wrong schedule.  A command operator
(:data:`COMMAND_MUTATIONS`: swapped ports, deleted command, retimed
command) edits only a copy of the command memory (``node ->
NodeSchedule``) over the intact slots, modelling per-CP corruption where
Ω runs.  Each checker is measured on the input it owns: the conformance
analyzer (:func:`repro.check.analyzer.analyze_schedule`) and
``validate()`` on the slots, the executor's replay on Ω.  The test suite
asserts the analyzer kills every slot mutant of a seeded corpus and the
executor every command mutant, and the ``check.kill_matrix`` pin
(``tools/pins.py``) counts what each checker kills on the benchmark's
DVB(5) schedules.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.core.switching import (
    CommunicationSchedule,
    NodeSchedule,
    TransmissionSlot,
)


@dataclass(frozen=True)
class MutatedSchedule:
    """A corrupted schedule plus what was done to it.

    ``schedule`` is the slot table, ``node_schedules`` the command memory
    the CPs run: a slot mutant's memory is its slots' projection, a
    command mutant's slots are the original ones."""

    schedule: CommunicationSchedule
    node_schedules: Mapping[int, NodeSchedule]
    mutation: str
    detail: str


@dataclass
class SlotDraft:
    """The copy of a schedule's fields a slot operator edits in place;
    the corrupted schedule is built from it, so its Ω is the projection
    of the corrupted slots."""

    tau_in: float
    slots: dict[str, tuple[TransmissionSlot, ...]]
    assignment: dict[str, tuple[int, ...]]


class MutationSkipped(Exception):
    """The schedule offers no site for this mutation (e.g. a single-slot
    schedule cannot host a swap between two messages)."""


def _pick_slot(
    draft: SlotDraft, rng: random.Random
) -> tuple[str, int, TransmissionSlot]:
    name = rng.choice(sorted(draft.slots))
    index = rng.randrange(len(draft.slots[name]))
    return name, index, draft.slots[name][index]


def _replace_slot(
    draft: SlotDraft,
    name: str,
    index: int,
    slot: TransmissionSlot,
) -> None:
    slots = list(draft.slots[name])
    slots[index] = slot
    draft.slots[name] = tuple(slots)


# -- slot operators: edit a SlotDraft ------------------------------------------


def shift_slot(draft: SlotDraft, rng: random.Random) -> str:
    """Move one slot by roughly a tenth of the frame (consistently, node
    schedules included) — the classic off-by-one-interval compiler bug."""
    name, index, slot = _pick_slot(draft, rng)
    delta = draft.tau_in * rng.uniform(0.08, 0.2)
    if slot.start + delta + slot.duration > draft.tau_in:
        delta = -delta
    shifted = slot._replace(start=max(slot.start + delta, 0.0))
    _replace_slot(draft, name, index, shifted)
    return f"slot {index} of {name!r} moved by {delta:+.4f}"


def overrun_window_eps(draft: SlotDraft, rng: random.Random) -> str:
    """Stretch one slot a hair past its window — the off-by-EPS class of
    boundary bug (just beyond the comparison tolerance)."""
    name, index, slot = _pick_slot(draft, rng)
    excess = 5e-7  # far below a packet time, well above EPS
    stretched = slot._replace(duration=slot.duration + excess)
    _replace_slot(draft, name, index, stretched)
    return f"slot {index} of {name!r} stretched by {excess:g}"


def drop_slot(draft: SlotDraft, rng: random.Random) -> str:
    """Delete one transmission slot entirely — the message is silently
    under-scheduled (its tail never transmitted)."""
    name, index, slot = _pick_slot(draft, rng)
    slots = list(draft.slots[name])
    slots.pop(index)
    draft.slots[name] = tuple(slots)
    return f"slot {index} of {name!r} deleted ({slot.duration:.4f}us lost)"


def truncate_slot(draft: SlotDraft, rng: random.Random) -> str:
    """Halve one slot's duration — partial transmission, missed coverage."""
    name, index, slot = _pick_slot(draft, rng)
    _replace_slot(
        draft, name, index, slot._replace(duration=slot.duration / 2)
    )
    return f"slot {index} of {name!r} truncated to half duration"


def reroute_hop(draft: SlotDraft, rng: random.Random) -> str:
    """Rewrite one intermediate hop of a message's path to another node
    already on the path — a corrupted routing table creating a loop.

    (Rewiring to an *arbitrary* node can by luck produce a different but
    equally valid route, which is not a corruption at all; revisiting a
    path node is a guaranteed invariant violation.)"""
    candidates = [
        name for name, path in draft.assignment.items()
        if len(path) >= 3 and name in draft.slots
    ]
    if not candidates:
        raise MutationSkipped("no multi-hop paths to reroute")
    name = rng.choice(sorted(candidates))
    path = list(draft.assignment[name])
    hop = rng.randrange(1, len(path) - 1)
    replacement = rng.choice(
        [n for i, n in enumerate(path) if i != hop]
    )
    old = path[hop]
    path[hop] = replacement
    draft.assignment[name] = tuple(path)
    draft.slots[name] = tuple(
        slot._replace(path=tuple(path)) for slot in draft.slots[name]
    )
    return f"{name!r} hop {hop} rewired {old}->{replacement}"


def truncate_path(draft: SlotDraft, rng: random.Random) -> str:
    """Cut a message's slots short of the destination — the flits would
    have to wait in an intermediate node's buffer (buffering violation)."""
    candidates = [
        name for name, path in draft.assignment.items()
        if len(path) >= 3 and name in draft.slots
    ]
    if not candidates:
        raise MutationSkipped("no multi-hop paths to truncate")
    name = rng.choice(sorted(candidates))
    partial = tuple(draft.assignment[name][:-1])
    draft.slots[name] = tuple(
        slot._replace(path=partial) for slot in draft.slots[name]
    )
    return f"{name!r} slots truncated to partial path {partial}"


def collide_slots(draft: SlotDraft, rng: random.Random) -> str:
    """Retime one slot onto another message's window on a shared link —
    direct contention."""
    by_link: dict[tuple[int, int], list[tuple[str, int]]] = {}
    for name, slots in draft.slots.items():
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
    victim = draft.slots[name_b][i_b]
    moved = draft.slots[name_a][i_a]._replace(start=victim.start)
    _replace_slot(draft, name_a, i_a, moved)
    return (
        f"slot {i_a} of {name_a!r} retimed onto slot {i_b} of "
        f"{name_b!r} (link {link})"
    )


# -- command operators: edit a command memory (node -> NodeSchedule) ---------


def swap_crossbar_ports(
    memory: dict[int, NodeSchedule], tau_in: float, rng: random.Random
) -> str:
    """Reverse the input/output ports of one switching command — a CP
    programmed to route the flit backwards."""
    candidates = [
        (node, i)
        for node, ns in memory.items()
        for i, c in enumerate(ns.commands)
        if c.input_port != c.output_port
    ]
    if not candidates:
        raise MutationSkipped("no commands to swap")
    node, i = candidates[rng.randrange(len(candidates))]
    commands = list(memory[node].commands)
    c = commands[i]
    commands[i] = c._replace(input_port=c.output_port, output_port=c.input_port)
    memory[node] = NodeSchedule(node=node, commands=tuple(commands))
    return (
        f"node {node} command {i} ports swapped "
        f"({c.input_port!r}<->{c.output_port!r})"
    )


def delete_command(
    memory: dict[int, NodeSchedule], tau_in: float, rng: random.Random
) -> str:
    """Drop one switching command from one node's schedule — a lost
    entry in a CP's command memory."""
    nodes = [n for n, ns in memory.items() if ns.commands]
    if not nodes:
        raise MutationSkipped("no node schedules")
    node = rng.choice(sorted(nodes))
    commands = list(memory[node].commands)
    i = rng.randrange(len(commands))
    dropped = commands.pop(i)
    memory[node] = NodeSchedule(node=node, commands=tuple(commands))
    return f"node {node} lost command {i} ({dropped.message!r})"


def retime_command(
    memory: dict[int, NodeSchedule], tau_in: float, rng: random.Random
) -> str:
    """Move one switching command earlier — a CP clock programmed against
    the wrong frame offset.  Only a command that can move (one not at
    t = 0) is drawn, and the shift reported is the one applied."""
    candidates = [
        (node, i)
        for node, ns in sorted(memory.items())
        for i, c in enumerate(ns.commands)
        if c.time > 0.0
    ]
    if not candidates:
        raise MutationSkipped("no command after t = 0 to retime")
    node, i = candidates[rng.randrange(len(candidates))]
    commands = list(memory[node].commands)
    c = commands[i]
    time = max(0.0, c.time - tau_in * rng.uniform(0.03, 0.1))
    commands[i] = c._replace(time=time)
    memory[node] = NodeSchedule(node=node, commands=tuple(commands))
    return f"node {node} command {i} retimed by {time - c.time:+.4f}"


#: The slot operators, by stable name.
SLOT_MUTATIONS: dict[str, Callable[[SlotDraft, random.Random], str]] = {
    "shift-slot": shift_slot,
    "overrun-window-eps": overrun_window_eps,
    "drop-slot": drop_slot,
    "truncate-slot": truncate_slot,
    "reroute-hop": reroute_hop,
    "truncate-path": truncate_path,
    "collide-slots": collide_slots,
}

#: The command operators, by stable name.
COMMAND_MUTATIONS: dict[
    str, Callable[[dict[int, NodeSchedule], float, random.Random], str]
] = {
    "swap-crossbar-ports": swap_crossbar_ports,
    "delete-command": delete_command,
    "retime-command": retime_command,
}

#: Every operator's name, sorted.
MUTATIONS = tuple(sorted([*SLOT_MUTATIONS, *COMMAND_MUTATIONS]))


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
    name = mutation or rng.choice(MUTATIONS)
    if name in COMMAND_MUTATIONS:
        memory = dict(schedule.node_schedules)
        detail = COMMAND_MUTATIONS[name](memory, schedule.tau_in, rng)
        return MutatedSchedule(schedule, memory, name, detail)
    draft = SlotDraft(
        schedule.tau_in, dict(schedule.slots), dict(schedule.assignment)
    )
    detail = SLOT_MUTATIONS[name](draft, rng)
    corrupted = dataclasses.replace(
        schedule, slots=draft.slots, assignment=draft.assignment
    )
    return MutatedSchedule(corrupted, corrupted.node_schedules, name, detail)
