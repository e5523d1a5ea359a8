"""Unit tests for switching schedules and Omega validation."""

import itertools

import pytest

from repro.core.compiler import compile_schedule
from repro.core.switching import (
    AP_PORT,
    CommunicationSchedule,
    SwitchCommand,
    TransmissionSlot,
    node_schedules_of,
)
from repro.errors import ScheduleValidationError, SchedulingError
from tests.conftest import pins


def slot(message="m", start=0.0, duration=5.0, path=(0, 1, 3)):
    return TransmissionSlot(message, start, duration, tuple(path))


class TestTransmissionSlot:
    def test_links(self):
        s = slot(path=(0, 1, 3, 7))
        assert s.links == ((0, 1), (1, 3), (3, 7))
        assert s.end == 5.0

    def test_a_named_tuple_of_its_fields(self):
        s = slot(start=2.0)
        assert TransmissionSlot._fields == (
            "message", "start", "duration", "path"
        )
        assert s == ("m", 2.0, 5.0, (0, 1, 3))
        assert hash(s) == hash(slot(start=2.0))
        assert s._replace(start=4.0) == slot(start=4.0)
        assert s._replace(duration=1.0).end == 3.0
        with pytest.raises(AttributeError):
            s.start = 0.0

    def test_rebuilt_slots_build_equal_schedules(self, corpus_schedules):
        for schedule in corpus_schedules[:4]:
            copied = {
                name: tuple(TransmissionSlot(**s._asdict()) for s in slots)
                for name, slots in schedule.slots.items()
            }
            assert CommunicationSchedule.from_slots(
                schedule.tau_in, copied, schedule.bounds,
                schedule.assignment,
            ) == schedule


def slot_commands(s):
    """``node -> its one command`` for the single slot ``s``."""
    return {
        node: ns.commands[0]
        for node, ns in node_schedules_of({s.message: (s,)}).items()
    }


class TestSlotCommands:
    def test_roles_along_path(self):
        commands = slot_commands(slot(path=(0, 1, 3)))
        assert commands[0].input_port == AP_PORT
        assert commands[0].output_port == 1
        assert commands[1].input_port == 0
        assert commands[1].output_port == 3
        assert commands[3].input_port == 1
        assert commands[3].output_port == AP_PORT

    def test_single_hop(self):
        commands = slot_commands(slot(path=(4, 5)))
        assert len(commands) == 2
        src_cmd, dst_cmd = commands[4], commands[5]
        assert src_cmd.input_port == AP_PORT and src_cmd.output_port == 5
        assert dst_cmd.input_port == 4 and dst_cmd.output_port == AP_PORT


def schedule_from_slots(slots_by_message, tau_in=100.0):
    slots = {m: tuple(s) for m, s in slots_by_message.items()}
    return CommunicationSchedule(
        tau_in=tau_in, slots=slots, node_schedules=node_schedules_of(slots)
    )


class TestValidation:
    def test_disjoint_slots_pass(self):
        schedule = schedule_from_slots(
            {
                "m1": [slot("m1", 0.0, 5.0, (0, 1))],
                "m2": [slot("m2", 0.0, 5.0, (2, 3))],
            }
        )
        schedule.validate()
        assert schedule.num_commands == 4

    def test_link_double_booking_caught(self):
        schedule = schedule_from_slots(
            {
                "m1": [slot("m1", 0.0, 5.0, (0, 1, 3))],
                "m2": [slot("m2", 3.0, 5.0, (1, 3))],
            }
        )
        with pytest.raises(ScheduleValidationError, match="double-booked"):
            schedule.validate()

    def test_back_to_back_slots_allowed(self):
        schedule = schedule_from_slots(
            {
                "m1": [slot("m1", 0.0, 5.0, (0, 1))],
                "m2": [slot("m2", 5.0, 5.0, (0, 1))],
            }
        )
        schedule.validate()

    def test_node_schedule_mismatch_caught(self):
        schedule = schedule_from_slots(
            {"m1": [slot("m1", 0.0, 5.0, (0, 1))]}
        )
        # Drop one node's commands.
        del schedule.node_schedules[1]
        with pytest.raises(ScheduleValidationError, match="do not match"):
            schedule.validate()

    def test_same_message_preemption_slots_pass(self):
        schedule = schedule_from_slots(
            {
                "m1": [
                    slot("m1", 0.0, 3.0, (0, 1, 3)),
                    slot("m1", 6.0, 2.0, (0, 1, 3)),
                ],
            }
        )
        schedule.validate()

    def test_ap_port_never_conflicts(self):
        # One node sending two messages simultaneously on different
        # channels: allowed (separate per-channel AP buffers, Fig. 2).
        schedule = schedule_from_slots(
            {
                "m1": [slot("m1", 0.0, 5.0, (0, 1))],
                "m2": [slot("m2", 0.0, 5.0, (0, 2))],
            }
        )
        schedule.validate()

    def test_all_slots_flattening(self):
        schedule = schedule_from_slots(
            {
                "m1": [slot("m1", 0.0, 2.0, (0, 1)), slot("m1", 4.0, 1.0, (0, 1))],
                "m2": [slot("m2", 0.0, 2.0, (2, 3))],
            }
        )
        assert len(schedule.all_slots()) == 3


class TestSwitchCommand:
    def test_immutable_hashable_value(self):
        a = SwitchCommand(1.0, 2.0, AP_PORT, 3, "m")
        b = SwitchCommand(1.0, 2.0, AP_PORT, 3, "m")
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != a._replace(time=1.5)
        with pytest.raises(AttributeError):
            a.time = 0.0
        assert a.end == 3.0

    def test_field_order(self):
        assert SwitchCommand._fields == (
            "time", "duration", "input_port", "output_port", "message"
        )
        command = SwitchCommand(1.0, 2.0, AP_PORT, 3, "m")
        assert tuple(command) == (1.0, 2.0, AP_PORT, 3, "m")
        assert command._replace(time=0.5).time == 0.5


# -- the checked constructor against validate() ---------------------------------

#: Operators that edit node schedules only; every other one edits slots and
#: re-projects Ω.
OMEGA_OPERATORS = {"swap-crossbar-ports", "delete-command", "retime-command"}


@pytest.fixture(scope="module")
def kill_corpus():
    return list(pins().kill_corpus())


@pytest.fixture(scope="module")
def corpus_schedules(kill_corpus):
    """Each schedule of the kill-matrix corpus, then each of the twelve
    ``cache_replay`` points that compiles."""
    inputs = pins().inputs
    schedules = list({
        id(routing.schedule): routing.schedule
        for _, _, routing, _ in kill_corpus
    }.values())
    instances = inputs.Instances()
    for name, load in itertools.product(
        inputs.ALL_TOPOLOGIES, inputs.CACHE_LOADS
    ):
        try:
            routing = compile_schedule(
                *instances.dvb(5, name, 128.0, load), inputs.compiler_config()
            )
        except SchedulingError:
            continue
        schedules.append(routing.schedule)
    return schedules


def _rebuilt(schedule):
    return CommunicationSchedule.from_slots(
        schedule.tau_in, schedule.slots, schedule.bounds, schedule.assignment
    )


def test_checked_constructor_is_the_projection(corpus_schedules):
    """Ω from the one checked pass is ``node_schedules_of(slots)``, node
    for node and command for command, in order."""
    assert len(corpus_schedules) >= 15
    for schedule in corpus_schedules:
        rebuilt = _rebuilt(schedule)
        projected = node_schedules_of(schedule.slots)
        assert list(rebuilt.node_schedules) == list(projected)
        assert rebuilt.node_schedules == projected == schedule.node_schedules
        assert rebuilt == schedule


def _outcome(check):
    try:
        check()
    except ScheduleValidationError as error:
        return str(error)
    return None


def test_checked_constructor_raises_as_validate(kill_corpus):
    """On every slot-level mutant, the constructor raises exactly when
    ``validate()`` does, with the same message."""
    outcomes = []
    for operator, mutant, _, _ in kill_corpus:
        if operator in OMEGA_OPERATORS:
            continue
        expected = _outcome(mutant.validate)
        assert _outcome(lambda: _rebuilt(mutant)) == expected, operator
        outcomes.append(expected)
    assert any(outcomes) and None in outcomes
