"""Validator coverage: every schedule corruption must be caught.

The compiler guarantees rest on the validators actually rejecting bad
schedules.  Each test here injects one specific fault into a known-good
compiled schedule and asserts that the static validator or the
executor's replay of Ω catches it.
"""

import dataclasses

import pytest

from repro.core.compiler import compile_schedule
from repro.core.executor import ScheduledRoutingExecutor
from repro.core.switching import (
    CommunicationSchedule,
    NodeSchedule,
    SwitchCommand,
    TransmissionSlot,
    node_schedules_of,
)
from repro.core.timebounds import TimeBoundSet
from repro.errors import ScheduleValidationError
from repro.tfg import TFGTiming
from repro.tfg.synth import chain_tfg


@pytest.fixture()
def good(cube3):
    timing = TFGTiming(chain_tfg(4, 400, 1280), 128.0, speeds=40.0)
    allocation = {"t0": 0, "t1": 1, "t2": 3, "t3": 7}
    routing = compile_schedule(timing, cube3, allocation, tau_in=40.0)
    return routing, timing, cube3, allocation


def rebuild(schedule: CommunicationSchedule) -> CommunicationSchedule:
    """Clone a schedule so tampering does not leak between tests."""
    from repro.core.io import schedule_from_dict, schedule_to_dict

    return schedule_from_dict(schedule_to_dict(schedule))


def execute(good, schedule: CommunicationSchedule) -> None:
    """Run ``schedule`` in place of the good one on the executor."""
    routing, timing, topology, allocation = good
    ScheduledRoutingExecutor(
        dataclasses.replace(routing, schedule=schedule),
        timing, topology, allocation,
    ).run(invocations=12, warmup=2)


def set_slots(routing, name: str, slots) -> None:
    """Replace one message's slots *and* Ω, consistently."""
    routing.schedule.slots[name] = tuple(slots)
    routing.schedule.node_schedules = node_schedules_of(routing.schedule.slots)


class TestStaticValidatorCoverage:
    def test_shortened_slot_caught(self, good):
        routing, *_ = good
        schedule = rebuild(routing.schedule)
        name = next(iter(schedule.slots))
        slots = schedule.slots[name]
        schedule.slots[name] = (
            TransmissionSlot(name, slots[0].start, slots[0].duration * 0.5,
                             slots[0].path),
        ) + slots[1:]
        with pytest.raises(ScheduleValidationError, match="transmission time"):
            schedule.validate()

    def test_slot_outside_window_caught(self, good):
        routing, *_ = good
        schedule = rebuild(routing.schedule)
        name = next(iter(schedule.slots))
        slots = schedule.slots[name]
        bound = schedule.bounds.bounds[name]
        bad_start = (bound.windows[-1][1] + 1.0) % schedule.tau_in
        schedule.slots[name] = (
            TransmissionSlot(name, bad_start, slots[0].duration,
                             slots[0].path),
        ) + slots[1:]
        with pytest.raises(ScheduleValidationError):
            schedule.validate()

    def test_overlapping_link_use_caught(self, good):
        routing, *_ = good
        schedule = rebuild(routing.schedule)
        # Force two different messages onto one link at one time by
        # retiming the second message's slot onto the first's.
        names = sorted(schedule.slots)
        first, second = names[0], names[1]
        target = schedule.slots[first][0]
        donor = schedule.slots[second][0]
        # Give `second` a fabricated slot on `first`'s path and time.
        schedule.slots[second] = (
            TransmissionSlot(second, target.start, donor.duration,
                             target.path),
        ) + schedule.slots[second][1:]
        with pytest.raises(ScheduleValidationError):
            schedule.validate()

    def test_unscheduled_message_caught(self, good):
        """A bounded message whose slots are gone is under-scheduled,
        whether the slots are handed to the constructor or to
        ``validate()``."""
        routing, *_ = good
        schedule = rebuild(routing.schedule)
        name = sorted(schedule.slots)[0]
        del schedule.slots[name]
        schedule.node_schedules = node_schedules_of(schedule.slots)
        with pytest.raises(ScheduleValidationError, match="scheduled 0.0"):
            schedule.validate()
        with pytest.raises(ScheduleValidationError, match="scheduled 0.0"):
            CommunicationSchedule.from_slots(
                schedule.tau_in, schedule.slots, schedule.bounds,
                schedule.assignment,
            )

    def test_unbounded_message_caught(self, good):
        routing, *_ = good
        schedule = rebuild(routing.schedule)
        name = sorted(schedule.slots)[0]
        bounds = dict(schedule.bounds.bounds)
        del bounds[name]
        schedule.bounds = TimeBoundSet(schedule.tau_in, bounds)
        with pytest.raises(ScheduleValidationError, match="no time bounds"):
            schedule.validate()

    def test_missing_node_commands_caught(self, good):
        routing, *_ = good
        schedule = rebuild(routing.schedule)
        node = next(iter(schedule.node_schedules))
        del schedule.node_schedules[node]
        with pytest.raises(ScheduleValidationError, match="do not match"):
            schedule.validate()

    def test_spurious_node_command_caught(self, good):
        routing, *_ = good
        schedule = rebuild(routing.schedule)
        node, node_schedule = next(iter(schedule.node_schedules.items()))
        extra = SwitchCommand(0.0, 1.0, "AP", 99, "ghost")
        schedule.node_schedules[node] = NodeSchedule(
            node, node_schedule.commands + (extra,)
        )
        with pytest.raises(ScheduleValidationError, match="do not match"):
            schedule.validate()


class TestHardwareReplayCoverage:
    def test_unknown_channel_caught(self, good, cube3):
        routing, *_ = good
        schedule = rebuild(routing.schedule)
        node, node_schedule = next(iter(schedule.node_schedules.items()))
        far = next(
            n for n in range(cube3.num_nodes)
            if n not in cube3.neighbors(node) and n != node
        )
        bogus = SwitchCommand(0.0, 1.0, "AP", far, "ghost")
        schedule.node_schedules[node] = NodeSchedule(
            node, node_schedule.commands + (bogus,)
        )
        with pytest.raises(ScheduleValidationError, match="no channel"):
            execute(good, schedule)

    def test_command_past_frame_caught(self, good, cube3):
        routing, *_ = good
        schedule = rebuild(routing.schedule)
        node, node_schedule = next(iter(schedule.node_schedules.items()))
        neighbor = cube3.neighbors(node)[0]
        late = SwitchCommand(
            schedule.tau_in - 0.5, 2.0, "AP", neighbor, "late"
        )
        schedule.node_schedules[node] = NodeSchedule(
            node, node_schedule.commands + (late,)
        )
        with pytest.raises(ScheduleValidationError, match="outside frame"):
            execute(good, schedule)


class TestExecutorCoverage:
    def test_shifted_slots_caught_at_runtime(self, good):
        routing, timing, topology, allocation = good
        name = next(iter(routing.schedule.slots))
        set_slots(routing, name, (
            TransmissionSlot(
                s.message, (s.start + 11.0) % routing.tau_in, s.duration,
                s.path,
            )
            for s in routing.schedule.slots[name]
        ))
        executor = ScheduledRoutingExecutor(
            routing, timing, topology, allocation
        )
        with pytest.raises(ScheduleValidationError):
            executor.run(invocations=12, warmup=2)

    @pytest.mark.parametrize(
        "windows",
        [
            [(10.0, 7.0), (15.0, 5.0)],   # two windows overlap on (0, 1)
            [(10.0, 10.0), (12.0, 3.0)],  # one nested inside the other
        ],
        ids=["overlapping", "nested"],
    )
    def test_windows_colliding_on_a_link_are_contention(self, good, windows):
        """The second claim queues behind the first window's hold: whether
        it is granted late (overlap) or its own window closes first
        (nested), the replay reports contention.  The last window still
        ends by the deadline, so only the dynamic check can see it."""
        routing, timing, topology, allocation = good
        (slot,) = routing.schedule.slots["m0"]
        assert (slot.start, slot.duration) == (10.0, 10.0)
        set_slots(routing, "m0", (
            TransmissionSlot("m0", start, duration, slot.path)
            for start, duration in windows
        ))
        executor = ScheduledRoutingExecutor(
            routing, timing, topology, allocation
        )
        with pytest.raises(ScheduleValidationError, match="contention"):
            executor.run(invocations=12, warmup=2)


slot = TransmissionSlot


def windowed(**windows):
    """Bounds of 4-unit messages with these windows on a 100-unit frame."""
    from repro.core.timebounds import MessageTimeBounds

    return TimeBoundSet(100.0, {
        name: MessageTimeBounds(name, w[0][0], w[-1][1], 4.0, w)
        for name, w in windows.items()
    })


NAN, INF = float("nan"), float("inf")

#: ``(tau_in, slots, bounds, the message both checkers raise)``, each
#: message spelt out in full: the first invariant violated, in the
#: checks' order (frame, then per message in slot order: finite slots,
#: bounds, coverage, windows, paths; unscheduled messages; links in the
#: order the slots first cross them, ties on a start in slot order).
MESSAGES = {
    "period": (NAN, {"a": (slot("a", 0.0, 4.0, (0, 1)),)}, None,
               "period tau_in=nan is not a positive finite time"),
    "not-finite": (
        100.0,
        {"b": (slot("b", 0.0, 4.0, (0, 1)),),
         "a": (slot("a", INF, 4.0, (2, 3)),)},
        None,
        "message 'a': slot of start inf and duration 4.0 is not a finite "
        "span longer than 1e-09",
    ),
    "empty": (100.0, {"a": (slot("a", 1.0, 0.0, (0, 1)),)}, None,
              "message 'a': slot of start 1.0 and duration 0.0 is not a "
              "finite span longer than 1e-09"),
    "path-before-next-message": (
        100.0,
        {"b": (slot("b", 0.0, 4.0, (0, 0)),),
         "a": (slot("a", NAN, 4.0, (2, 3)),)},
        None,
        "message 'b': path (0, 0) is not a route of two or more distinct "
        "nodes",
    ),
    "unbounded": (100.0, {"a": (slot("a", 0.0, 4.0, (0, 1)),)},
                  windowed(b=((0.0, 50.0),)),
                  "message 'a': slots but no time bounds"),
    "coverage": (100.0, {"a": (slot("a", 0.0, 3.0, (0, 1)),)},
                 windowed(a=((0.0, 50.0),)),
                 "message 'a': scheduled 3.000000 of 4.000000 required "
                 "transmission time"),
    "window-before-path": (
        100.0, {"a": (slot("a", 48.0, 4.0, (0, 0)),)},
        windowed(a=((0.0, 50.0),)),
        "message 'a': slot [48.000000, 52.000000] outside windows "
        "((0.0, 50.0),)",
    ),
    "unscheduled": (100.0, {"a": (slot("a", 0.0, 4.0, (0, 1)),)},
                    windowed(a=((0.0, 50.0),), b=((10.0, 90.0),)),
                    "message 'b': scheduled 0.000000 of 4.000000 required "
                    "transmission time"),
    "first-link-crossed": (
        100.0,
        {"z": (slot("z", 1.0, 4.0, (2, 0, 1)),
               slot("z", 9.0, 4.0, (2, 0, 1))),
         "a": (slot("a", 10.0, 2.0, (3, 2)), slot("a", 2.0, 2.0, (0, 1)))},
        None,
        "link (0, 1) double-booked: 'z' [1.000000,5.000000] overlaps 'a' "
        "[2.000000,4.000000]",
    ),
    "tie-in-slot-order": (
        100.0,
        {"z": (slot("z", 1.0, 4.0, (0, 1, 3)),),
         "a": (slot("a", 1.0, 2.0, (1, 3)),)},
        None,
        "link (1, 3) double-booked: 'z' [1.000000,5.000000] overlaps 'a' "
        "[1.000000,3.000000]",
    ),
}


class TestErrorMessages:
    @pytest.mark.parametrize("case", MESSAGES)
    def test_constructor_and_validate_raise_the_message(self, case):
        tau_in, slots, bounds, message = MESSAGES[case]
        with pytest.raises(ScheduleValidationError) as built:
            CommunicationSchedule.from_slots(tau_in, slots, bounds, {})
        assert str(built.value) == message
        handed_in = CommunicationSchedule(
            tau_in, slots, node_schedules_of(slots), bounds, {}
        )
        with pytest.raises(ScheduleValidationError) as validated:
            handed_in.validate()
        assert str(validated.value) == message


def unparsable(edit):
    """The one-message schedule file of ``test_core_io`` after ``edit``."""
    from tests.unit.test_core_io import one_message

    data = one_message([(0.0, 10.0)])
    edit(data)
    return data


#: A field the loader refuses to parse, and its message.
UNPARSABLE = {
    "one-number-window": (
        lambda d: d["bounds"]["m"].update(windows=[[0.0]]),
        "message 'm': window [0.0] is not a pair of numbers",
    ),
    "three-number-window": (
        lambda d: d["bounds"]["m"].update(windows=[[0.0, 60.0, 90.0]]),
        "message 'm': window [0.0, 60.0, 90.0] is not a pair of numbers",
    ),
    "float-node-id": (
        lambda d: d["assignment"].update(m=[0.9, 1.2]),
        "message 'm': node id 0.9 is not an integer",
    ),
}


class TestFileFields:
    """The loader and the analyzer read a file with one parse: a field
    it cannot parse is the same typed refusal from both, and the
    ``check`` command's usage error (exit 2)."""

    @pytest.mark.parametrize("case", UNPARSABLE)
    def test_loader_and_analyzer_refuse_alike(self, case, tmp_path, cube3):
        import json

        from repro.check.analyzer import analyze_file
        from repro.core.io import load_schedule

        edit, message = UNPARSABLE[case]
        path = tmp_path / "omega.json"
        path.write_text(json.dumps(unparsable(edit)))
        for read in (load_schedule, lambda p: analyze_file(p, cube3)):
            with pytest.raises(ScheduleValidationError) as refused:
                read(path)
            assert str(refused.value) == message

    @pytest.mark.parametrize("case", UNPARSABLE)
    def test_check_command_exits_2(self, case, tmp_path, capsys):
        import json

        from repro.cli import main

        edit, message = UNPARSABLE[case]
        path = tmp_path / "omega.json"
        path.write_text(json.dumps(unparsable(edit)))
        with pytest.raises(SystemExit) as stop:
            main(["check", str(path)])
        assert stop.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            f"ScheduleValidationError: {message}"
        )
