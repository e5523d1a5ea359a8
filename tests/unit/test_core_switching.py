"""Unit tests for switching schedules and Omega validation."""

import dataclasses
import itertools

import pytest

from repro.check.mutate import COMMAND_MUTATIONS
from repro.core.compiler import compile_schedule
from repro.core.switching import (
    AP_PORT,
    CommunicationSchedule,
    NodeSchedule,
    SwitchCommand,
    TransmissionSlot,
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
        for node, ns in CommunicationSchedule(
            100.0, {s.message: (s,)}
        ).node_schedules.items()
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
    return CommunicationSchedule(tau_in=tau_in, slots=slots)


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


class TestFrozen:
    """Ω is a view of the slots: nothing can be assigned that would
    leave it stale."""

    def schedule(self):
        return CommunicationSchedule.from_slots(
            100.0, {"m": (slot("m", 0.0, 5.0, (0, 1)),)}, None,
            {"m": (0, 1)},
        )

    @pytest.mark.parametrize(
        "field", ["tau_in", "slots", "bounds", "assignment", "node_schedules"]
    )
    def test_no_attribute_can_be_assigned(self, field):
        schedule = self.schedule()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(schedule, field, {})
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(schedule, field)

    def test_no_mapping_item_can_be_assigned(self):
        schedule = self.schedule()
        items = (
            (schedule.slots, "m", ()),
            (schedule.assignment, "m", (0, 2)),
            (schedule.node_schedules, 0, NodeSchedule(0, ())),
        )
        for mapping, key, value in items:
            with pytest.raises(TypeError):
                mapping[key] = value
            with pytest.raises(TypeError):
                del mapping[key]

    def test_the_caller_dict_is_not_shared(self):
        slots = {"m": (slot("m", 0.0, 5.0, (0, 1)),)}
        schedule = CommunicationSchedule(100.0, slots)
        before = dict(schedule.node_schedules)
        slots["n"] = (slot("n", 0.0, 5.0, (2, 3)),)
        assert set(schedule.slots) == {"m"}
        assert schedule.node_schedules == before

    def test_replace_projects_the_new_slots(self):
        schedule = self.schedule()
        moved = (slot("m", 7.0, 5.0, (0, 2, 3)),)
        edited = dataclasses.replace(schedule, slots={"m": moved})
        assert edited.node_schedules == {
            0: NodeSchedule(0, (SwitchCommand(7.0, 5.0, AP_PORT, 2, "m"),)),
            2: NodeSchedule(2, (SwitchCommand(7.0, 5.0, 0, 3, "m"),)),
            3: NodeSchedule(3, (SwitchCommand(7.0, 5.0, 2, AP_PORT, "m"),)),
        }
        assert schedule.node_schedules[1].commands[0].time == 0.0


# -- the checked constructor against validate() ---------------------------------


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
    """Ω from the one checked pass is the unchecked constructor's
    projection of the same slots, node for node and command for command,
    in order."""
    assert len(corpus_schedules) >= 15
    for schedule in corpus_schedules:
        rebuilt = _rebuilt(schedule)
        projected = CommunicationSchedule(
            schedule.tau_in, schedule.slots, schedule.bounds,
            schedule.assignment,
        ).node_schedules
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
    for operator, mutated, _, _ in kill_corpus:
        if operator in COMMAND_MUTATIONS:
            continue
        expected = _outcome(mutated.schedule.validate)
        assert _outcome(lambda: _rebuilt(mutated.schedule)) == expected, (
            operator
        )
        outcomes.append(expected)
    assert any(outcomes) and None in outcomes
