"""Unit tests for schedule serialization."""

import json

import pytest

from repro.core.compiler import compile_schedule
from repro.core.io import (
    load_schedule,
    save_schedule,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.errors import ScheduleValidationError
from repro.tfg import TFGTiming
from repro.tfg.synth import chain_tfg


@pytest.fixture()
def compiled(cube3):
    timing = TFGTiming(chain_tfg(4, 400, 1280), 128.0, speeds=40.0)
    allocation = {"t0": 0, "t1": 1, "t2": 3, "t3": 7}
    return compile_schedule(timing, cube3, allocation, tau_in=40.0)


class TestRoundtrip:
    def test_dict_roundtrip_preserves_slots(self, compiled):
        data = schedule_to_dict(compiled.schedule)
        rebuilt = schedule_from_dict(data)
        assert rebuilt.tau_in == compiled.schedule.tau_in
        assert rebuilt.assignment == compiled.schedule.assignment
        for name, slots in compiled.schedule.slots.items():
            rebuilt_slots = rebuilt.slots[name]
            assert len(rebuilt_slots) == len(slots)
            for a, b in zip(slots, rebuilt_slots):
                assert a.start == b.start
                assert a.duration == b.duration
                assert a.path == b.path

    def test_node_schedules_regenerated_identically(self, compiled):
        rebuilt = schedule_from_dict(schedule_to_dict(compiled.schedule))
        assert set(rebuilt.node_schedules) == set(
            compiled.schedule.node_schedules
        )
        for node, original in compiled.schedule.node_schedules.items():
            assert rebuilt.node_schedules[node].commands == original.commands

    def test_bounds_roundtrip(self, compiled):
        rebuilt = schedule_from_dict(schedule_to_dict(compiled.schedule))
        assert rebuilt.bounds is not None
        for name, bound in compiled.schedule.bounds.bounds.items():
            restored = rebuilt.bounds.bounds[name]
            assert restored.windows == bound.windows
            assert restored.duration == bound.duration

    def test_file_roundtrip(self, tmp_path, compiled):
        path = tmp_path / "omega.json"
        save_schedule(compiled.schedule, path)
        loaded = load_schedule(path)
        assert loaded.num_commands == compiled.schedule.num_commands

    def test_json_is_plain_data(self, compiled):
        text = json.dumps(schedule_to_dict(compiled.schedule))
        assert "repro.schedule/1" in text


class TestValidationOnLoad:
    def test_unknown_format_rejected(self):
        with pytest.raises(ScheduleValidationError, match="format"):
            schedule_from_dict({"format": "other/9"})

    def test_tampered_slots_rejected(self, compiled):
        """A file edited to double-book a link must not load."""
        data = schedule_to_dict(compiled.schedule)
        # Make two messages' slots collide on the shared chain prefix.
        names = sorted(data["slots"])
        first = names[0]
        # Duplicate the first message's slot onto time 0 of another message
        # that shares no link won't collide; instead, clone within the same
        # message to violate total-duration coverage.
        data["slots"][first] = data["slots"][first] * 2
        with pytest.raises(ScheduleValidationError):
            schedule_from_dict(data)

    def test_slots_for_unknown_message_rejected(self, compiled):
        data = schedule_to_dict(compiled.schedule)
        data["slots"]["ghost"] = [{"start": 0.0, "duration": 1.0}]
        with pytest.raises(ScheduleValidationError, match="unassigned"):
            schedule_from_dict(data)

    @pytest.mark.parametrize(
        ("path", "match"),
        [
            ([], "not a route"),
            ([0], "not a route"),
            ([0, 0, 1], "not a route"),  # a self-link hop
            ([0, 1, 0, 1], "not a route"),
            ([0.5, 1], "node id 0.5 is not an integer"),
            ([0, "1"], "node id '1' is not an integer"),
            ([False, 1], "node id False is not an integer"),
        ],
        ids=["empty", "one-node", "self-link", "revisit", "float", "str",
             "bool"],
    )
    def test_malformed_path_rejected(self, path, match):
        data = one_message([(0.0, 10.0)])
        data["assignment"]["m"] = path
        with pytest.raises(ScheduleValidationError, match=match):
            schedule_from_dict(data)


def one_message(slots, tau_in=100.0):
    """One 10-unit message on link (0, 1), window [0, 60], these slots."""
    return {
        "format": "repro.schedule/1",
        "tau_in": tau_in,
        "assignment": {"m": [0, 1]},
        "slots": {
            "m": [{"start": start, "duration": d} for start, d in slots]
        },
        "bounds": {
            "m": {"release": 0.0, "deadline": 60.0, "duration": 10.0,
                  "windows": [[0.0, 60.0]]},
        },
    }


class TestFrameRuleOnLoad:
    """Slots whose durations still sum to the message's, but that no
    crossbar can execute: each used to load."""

    def test_the_untampered_message_loads(self):
        schedule = schedule_from_dict(one_message([(0.0, 4.0), (40.0, 6.0)]))
        assert schedule.num_commands == 4

    @pytest.mark.parametrize(
        "data",
        [
            # +15 and -5: covers 10, transmits for 15.
            one_message([(0.0, 15.0), (40.0, -5.0)]),
            one_message([(0.0, 10.0), (20.0, 0.0)]),
            one_message([(0.0, 10.0)], tau_in=float("nan")),
        ],
        ids=["negative-slot", "zero-length-slot", "nan-period"],
    )
    def test_impossible_slots_rejected(self, data):
        with pytest.raises(ScheduleValidationError, match="finite"):
            schedule_from_dict(data)

    @pytest.mark.parametrize(
        "slots, tau_in",
        [
            ([(float("nan"), 10.0)], 100.0),
            ([(0.0, float("inf"))], 100.0),
            ([(0.0, 10.0)], float("inf")),
            ([(0.0, 10.0)], -100.0),
        ],
    )
    def test_non_finite_times_rejected(self, slots, tau_in):
        with pytest.raises(ScheduleValidationError, match="finite"):
            schedule_from_dict(one_message(slots, tau_in))



class TestMessageCoverageOnLoad:
    """Every bounded message is scheduled, every scheduled message is
    bounded, and a window is a pair of numbers: each used to load or to
    raise something other than a validation error."""

    def test_deleted_message_slots_rejected(self, compiled):
        data = schedule_to_dict(compiled.schedule)
        name = sorted(data["slots"])[0]
        del data["slots"][name]
        with pytest.raises(
            ScheduleValidationError,
            match=f"message '{name}': scheduled 0.000000 of",
        ):
            schedule_from_dict(data)

    def test_slots_without_bounds_rejected(self):
        data = one_message([(0.0, 10.0)])
        data["assignment"]["n"] = [2, 3]
        data["slots"]["n"] = [{"start": 0.0, "duration": 10.0}]
        with pytest.raises(
            ScheduleValidationError, match="'n': slots but no time bounds"
        ):
            schedule_from_dict(data)

    @pytest.mark.parametrize(
        "window",
        [[0.0], [0.0, 60.0, 90.0], [], ["0", 60.0], [True, 60.0], None],
        ids=["one", "three", "empty", "str", "bool", "null"],
    )
    def test_window_not_a_pair_rejected(self, window):
        data = one_message([(0.0, 10.0)])
        data["bounds"]["m"]["windows"] = [window]
        with pytest.raises(ScheduleValidationError, match="not a pair"):
            schedule_from_dict(data)

    def test_integer_window_loads(self):
        data = one_message([(0.0, 10.0)])
        data["bounds"]["m"]["windows"] = [[0, 60]]
        schedule = schedule_from_dict(data)
        assert schedule.bounds.bounds["m"].windows == ((0.0, 60.0),)
