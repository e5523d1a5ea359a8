"""Serialization of communication schedules.

A compiled schedule Omega is a deployable artifact: per-node switching
command lists that the communication processors execute.  This module
round-trips it through JSON so a schedule can be compiled once, stored
next to the application binary, and checked again at load time.

The format is versioned and self-describing:

.. code-block:: json

    {
      "format": "repro.schedule/1",
      "tau_in": 96.15,
      "assignment": {"b0": [1, 3, 7]},
      "slots": {"b0": [{"start": 0.0, "duration": 12.0}]},
      "bounds": {"b0": {"release": 10.0, "deadline": 60.0,
                         "duration": 12.0,
                         "windows": [[10.0, 60.0]]}}
    }

Node schedules are not stored — they are a pure projection of the slots,
rebuilt on load in the one checked pass that proves the slots' invariants
(:meth:`~repro.core.switching.CommunicationSchedule.from_slots`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.core.switching import CommunicationSchedule, TransmissionSlot
from repro.core.timebounds import MessageTimeBounds, TimeBoundSet
from repro.errors import ScheduleValidationError

FORMAT = "repro.schedule/1"


def schedule_to_dict(schedule: CommunicationSchedule) -> dict[str, Any]:
    """Serialize a schedule (slots + assignment + bounds) to a dict."""
    data: dict[str, Any] = {
        "format": FORMAT,
        "tau_in": schedule.tau_in,
        "assignment": {
            name: list(path) for name, path in schedule.assignment.items()
        },
        "slots": {
            name: [
                {"start": slot.start, "duration": slot.duration}
                for slot in slots
            ]
            for name, slots in schedule.slots.items()
        },
    }
    if schedule.bounds is not None:
        data["bounds"] = {
            name: {
                "release": bound.release,
                "deadline": bound.deadline,
                "duration": bound.duration,
                "windows": [list(w) for w in bound.windows],
            }
            for name, bound in schedule.bounds.bounds.items()
        }
    return data


def schedule_from_dict(data: dict[str, Any]) -> CommunicationSchedule:
    """Rebuild a schedule from :func:`schedule_to_dict` output.

    Node schedules are regenerated from the slots in one checked pass, so
    a tampered file cannot produce a schedule that violates the
    contention-freedom invariants or leaves a bounded message unscheduled.
    """
    if data.get("format") != FORMAT:
        raise ScheduleValidationError(
            f"unknown schedule format {data.get('format')!r} "
            f"(expected {FORMAT!r})"
        )
    stated = parse_schedule(data)
    return CommunicationSchedule.from_slots(
        stated.tau_in, stated.slots, stated.bounds, stated.assignment
    )


def parse_schedule(data: dict[str, Any]) -> CommunicationSchedule:
    """The schedule ``data`` states, field by field, unchecked: no
    invariant is proved and Ω is left empty.  The loader checks what
    this returns; :func:`repro.check.analyzer.analyze_file` analyzes it.

    Raises :class:`~repro.errors.ScheduleValidationError` on a field that
    does not parse: slots of an unassigned message, a window that is not
    a pair of numbers, a node id that is not an integer.
    """
    tau_in = float(data["tau_in"])
    assignment = {
        name: tuple(_node_id(name, n) for n in path)
        for name, path in data["assignment"].items()
    }
    slots: dict[str, tuple[TransmissionSlot, ...]] = {}
    slot = tuple.__new__
    for name, raw_slots in data["slots"].items():
        path = assignment.get(name)
        if path is None:
            raise ScheduleValidationError(
                f"slots for unassigned message {name!r}"
            )
        slots[name] = tuple(
            slot(TransmissionSlot, (
                name, float(s["start"]), float(s["duration"]), path
            ))
            for s in raw_slots
        )

    bounds = None
    if "bounds" in data:
        parsed = {
            name: MessageTimeBounds(
                name=name,
                release=float(b["release"]),
                deadline=float(b["deadline"]),
                duration=float(b["duration"]),
                windows=tuple(_window(name, w) for w in b["windows"]),
            )
            for name, b in data["bounds"].items()
        }
        bounds = TimeBoundSet(tau_in, parsed)
    return CommunicationSchedule(tau_in, slots, {}, bounds, assignment)


def _window(name: str, value: Any) -> tuple[float, float]:
    """A stored window: a pair of numbers, never truncated or padded."""
    if not (isinstance(value, (list, tuple)) and len(value) == 2 and all(
            isinstance(end, (int, float)) and not isinstance(end, bool)
            for end in value)):
        raise ScheduleValidationError(
            f"message {name!r}: window {value!r} is not a pair of numbers"
        )
    return float(value[0]), float(value[1])


def _node_id(name: str, value: Any) -> int:
    """A node id of message ``name``'s path as stored: an integer, never
    a float to truncate or a bool or string to coerce."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScheduleValidationError(
            f"message {name!r}: node id {value!r} is not an integer"
        )
    return value


def save_schedule(schedule: CommunicationSchedule, path: str | Path) -> None:
    """Write a schedule to a JSON file."""
    Path(path).write_text(json.dumps(schedule_to_dict(schedule), indent=2))


def load_schedule(path: str | Path) -> CommunicationSchedule:
    """Read and check a schedule written by :func:`save_schedule`."""
    return schedule_from_dict(json.loads(Path(path).read_text()))
