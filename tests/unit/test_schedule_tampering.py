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
