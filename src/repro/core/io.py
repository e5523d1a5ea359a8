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
    if _shaped(data, dict, "schedule", None).get("format") != FORMAT:
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
    invariant is proved.  The loader checks what this returns;
    :func:`repro.check.analyzer.analyze_file` analyzes it.

    Raises :class:`~repro.errors.ScheduleValidationError` on a field that
    does not parse: an object or array of the wrong shape, slots of an
    unassigned message, a time that is not a number, a window that is not
    a pair of numbers, a node id that is not an integer.
    """
    _shaped(data, dict, "schedule", None)
    tau_in = _number(data["tau_in"], "tau_in", None)
    assignment = {
        name: tuple(
            _node_id(name, n) for n in _shaped(path, list, "path", name)
        )
        for name, path in _shaped(
            data["assignment"], dict, "assignment", None
        ).items()
    }
    slots: dict[str, tuple[TransmissionSlot, ...]] = {}
    raw = _shaped(data["slots"], dict, "slots", None)
    for name, raw_slots in raw.items():
        path = assignment.get(name)
        if path is None:
            raise ScheduleValidationError(
                f"slots for unassigned message {name!r}"
            )
        slots[name] = tuple(
            _slot(name, raw, path)
            for raw in _shaped(raw_slots, list, "slots", name)
        )

    bounds = None
    if "bounds" in data:
        parsed = {}
        for name, b in _shaped(data["bounds"], dict, "bounds", None).items():
            _shaped(b, dict, "bounds", name)
            parsed[name] = MessageTimeBounds(
                name=name,
                release=_number(b["release"], "release", name),
                deadline=_number(b["deadline"], "deadline", name),
                duration=_number(b["duration"], "duration", name),
                windows=tuple(
                    _window(name, w)
                    for w in _shaped(b["windows"], list, "windows", name)
                ),
            )
        bounds = TimeBoundSet(tau_in, parsed)
    return CommunicationSchedule(tau_in, slots, bounds, assignment)


def _shaped(value: Any, kind: type, field: str, name: str | None) -> Any:
    """``value`` if it is a JSON object (``kind`` ``dict``) or array
    (``list``) as stored; any other shape would be read by the wrong
    rule."""
    if not isinstance(value, kind):
        where = field if name is None else f"message {name!r}: {field}"
        raise ScheduleValidationError(
            f"{where} is {type(value).__name__}, not "
            f"{'an object' if kind is dict else 'an array'}"
        )
    return value


def _is_number(value: Any) -> bool:
    """A stored number: never a bool or a string to coerce."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(value: Any, field: str, name: str | None) -> float:
    """A stored time, by the rule of :func:`_window`.  A decoded JSON
    float passes at once: a cache hit reads hundreds of them."""
    if type(value) is float:
        return value
    if not _is_number(value):
        where = field if name is None else f"message {name!r}: {field}"
        raise ScheduleValidationError(f"{where} {value!r} is not a number")
    return float(value)


def _slot(name: str, value: Any, path: tuple[int, ...]) -> TransmissionSlot:
    """One stored slot of message ``name``, on its assigned ``path``."""
    if not isinstance(value, dict):  # a hit reads hundreds: no call then
        _shaped(value, dict, "slot", name)
    return tuple.__new__(TransmissionSlot, (
        name,
        _number(value["start"], "slot start", name),
        _number(value["duration"], "slot duration", name),
        path,
    ))


def _window(name: str, value: Any) -> tuple[float, float]:
    """A stored window: a pair of numbers, never truncated or padded."""
    if not (isinstance(value, (list, tuple)) and len(value) == 2
            and all(map(_is_number, value))):
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
