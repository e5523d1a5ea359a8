"""Unit tests for the independent conformance analyzer (`repro.check`)."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.check import analyze_schedule
from repro.check.analyzer import analyze_file
from repro.core.compiler import CompilerConfig, compile_schedule
from repro.core.switching import CommunicationSchedule, TransmissionSlot
from repro.core.timebounds import MessageTimeBounds, TimeBoundSet
from repro.tfg import TFGTiming
from repro.tfg.synth import chain_tfg

CONFIG = CompilerConfig(seed=0, max_paths=16, max_restarts=2, retries=1)


@pytest.fixture()
def compiled(cube3):
    """A feasible multi-hop compilation on the 3-cube."""
    timing = TFGTiming(chain_tfg(4, 400, 1280), 128.0, speeds=40.0)
    allocation = {"t0": 0, "t1": 3, "t2": 5, "t3": 6}
    routing = compile_schedule(timing, cube3, allocation, 40.0, CONFIG)
    return routing, timing, cube3, allocation


def slot(name, start, duration, path):
    return TransmissionSlot(name, start, duration, tuple(path))


def build(tau_in, slots, assignment=None, bounds=None):
    """A raw schedule the compiler never validated."""
    return CommunicationSchedule(
        tau_in=tau_in,
        slots={n: tuple(s) for n, s in slots.items()},
        bounds=bounds,
        assignment=(
            assignment
            if assignment is not None
            else {n: s[0].path for n, s in slots.items()}
        ),
    )


class TestCleanSchedules:
    def test_compiled_schedule_is_conformant(self, compiled):
        routing, timing, topology, allocation = compiled
        report = analyze_schedule(
            routing.schedule, topology, timing=timing, allocation=allocation
        )
        assert report.ok
        assert report.findings == ()
        assert report.checks == ("frame", "path", "link", "window")
        assert report.summary().startswith("CONFORMANT")

    def test_without_timing_still_checks_structure(self, compiled):
        routing, _, topology, _ = compiled
        report = analyze_schedule(routing.schedule, topology)
        assert report.ok

    def test_hand_built_disjoint_schedule(self, cube3):
        schedule = build(10.0, {
            "a": [slot("a", 0.0, 4.0, (0, 1))],
            "b": [slot("b", 0.0, 4.0, (1, 3))],
        })
        assert analyze_schedule(schedule, cube3).ok


class TestStructuralFindings:
    def test_bad_frame(self, cube3):
        schedule = build(0.0, {"a": [slot("a", 0.0, 1.0, (0, 1))]})
        report = analyze_schedule(schedule, cube3)
        assert not report.ok
        assert report.counts() == {"bad-frame": 1}
        assert report.checks == ("frame",)
        # What a serve ``check`` job puts on the wire for a bad schedule.
        (finding,) = report.to_dict()["findings"]
        assert (finding["severity"], finding["code"]) == ("error", "bad-frame")

    def test_slot_outside_frame_and_empty(self, cube3):
        schedule = build(10.0, {
            "a": [slot("a", 8.0, 4.0, (0, 1))],
            "b": [slot("b", 2.0, 0.0, (1, 3))],
        })
        counts = analyze_schedule(schedule, cube3).counts()
        assert counts["slot-outside-frame"] == 1
        assert counts["slot-empty"] == 1

    def test_path_discontinuous(self, cube3):
        # 0->3 is a diagonal, not a hypercube link.
        schedule = build(10.0, {"a": [slot("a", 0.0, 4.0, (0, 3, 7))]})
        report = analyze_schedule(schedule, cube3)
        assert "path-discontinuous" in report.counts()

    def test_path_revisits_node(self, cube3):
        schedule = build(10.0, {"a": [slot("a", 0.0, 4.0, (0, 1, 0))]})
        assert "path-revisits-node" in analyze_schedule(
            schedule, cube3
        ).counts()

    def test_path_missing(self, cube3):
        schedule = build(
            10.0, {"a": [slot("a", 0.0, 4.0, (0, 1))]}, assignment={}
        )
        assert "path-missing" in analyze_schedule(schedule, cube3).counts()

    def test_buffering_violation_on_partial_slot(self, cube3):
        # The slot covers only the first hop of the assigned path: the
        # message would park at node 1 waiting for its second slot.
        schedule = build(
            10.0,
            {"a": [slot("a", 0.0, 4.0, (0, 1)),
                   slot("a", 5.0, 4.0, (1, 3))]},
            assignment={"a": (0, 1, 3)},
        )
        report = analyze_schedule(schedule, cube3)
        assert report.counts()["buffering-violation"] == 2

    def test_path_mismatch(self, cube3):
        schedule = build(
            10.0,
            {"a": [slot("a", 0.0, 4.0, (0, 2, 3))]},
            assignment={"a": (0, 1, 3)},
        )
        assert "path-mismatch" in analyze_schedule(schedule, cube3).counts()


class TestExclusivityFindings:
    def test_link_overlap(self, cube3):
        schedule = build(10.0, {
            "a": [slot("a", 0.0, 4.0, (0, 1))],
            "b": [slot("b", 3.0, 4.0, (0, 1))],
        })
        report = analyze_schedule(schedule, cube3)
        # One contention, one finding: the link family alone proves
        # exclusivity, port conflicts and hold-and-wait included.
        assert report.counts() == {"link-overlap": 1}
        finding = next(
            f for f in report.findings if f.code == "link-overlap"
        )
        assert finding.link == (0, 1)
        assert finding.span == (pytest.approx(3.0), pytest.approx(4.0))

    def test_exact_abutment_is_clean(self, cube3):
        schedule = build(10.0, {
            "a": [slot("a", 0.0, 4.0, (0, 1))],
            "b": [slot("b", 4.0, 4.0, (0, 1))],
        })
        assert analyze_schedule(schedule, cube3).ok

    def test_wrapped_slot_conflicts_across_boundary(self, cube3):
        # "a" is written across the frame edge: [8, 11] on tau_in=10
        # wraps into [8,10] + [0,1], colliding with "b" at [0, 2].
        schedule = build(10.0, {
            "a": [slot("a", 8.0, 3.0, (0, 1))],
            "b": [slot("b", 0.5, 1.5, (0, 1))],
        })
        counts = analyze_schedule(schedule, cube3).counts()
        assert "link-overlap" in counts
        # the out-of-frame write itself is also reported
        assert "slot-outside-frame" in counts

    def test_message_self_overlap(self, cube3):
        schedule = build(
            10.0,
            {"a": [slot("a", 0.0, 4.0, (0, 1)),
                   slot("a", 2.0, 4.0, (0, 1))]},
            assignment={"a": (0, 1)},
        )
        assert "message-self-overlap" in analyze_schedule(
            schedule, cube3
        ).counts()


class TestWindowFindings:
    def wrapped_bounds(self, tau_in=12.0, duration=4.0):
        # deadline (5) < release (8): window wraps the frame edge.
        return TimeBoundSet(tau_in, {
            "a": MessageTimeBounds(
                name="a", release=8.0, deadline=5.0, duration=duration,
                windows=((0.0, 5.0), (8.0, 12.0)),
            ),
        })

    def test_wrapped_window_accepts_both_segments(self, cube3):
        schedule = build(
            12.0,
            {"a": [slot("a", 8.0, 2.0, (0, 1)),
                   slot("a", 0.0, 2.0, (0, 1))]},
            bounds=self.wrapped_bounds(),
        )
        assert analyze_schedule(schedule, cube3).ok

    def test_exact_frame_edges_are_inside(self, cube3):
        # Slots touching t=0 and t=tau_in exactly (the le/EPS edge).
        schedule = build(
            12.0,
            {"a": [slot("a", 8.0, 4.0, (0, 1))]},
            bounds=self.wrapped_bounds(),
        )
        assert analyze_schedule(schedule, cube3).ok

    def test_window_overrun_across_gap(self, cube3):
        # [4, 8] straddles the forbidden gap (5, 8).
        schedule = build(
            12.0,
            {"a": [slot("a", 4.0, 4.0, (0, 1))]},
            bounds=self.wrapped_bounds(),
        )
        assert "window-overrun" in analyze_schedule(
            schedule, cube3
        ).counts()

    def test_off_by_eps_overrun_detected(self, cube3):
        # 5e-7 past the deadline: beyond EPS (1e-9), must be flagged.
        schedule = build(
            12.0,
            {"a": [slot("a", 1.0 + 5e-7, 4.0, (0, 1))]},
            bounds=self.wrapped_bounds(),
        )
        assert "window-overrun" in analyze_schedule(
            schedule, cube3
        ).counts()

    def test_sub_eps_slack_is_tolerated(self, cube3):
        schedule = build(
            12.0,
            {"a": [slot("a", 1.0 + 5e-10, 4.0, (0, 1))]},
            bounds=self.wrapped_bounds(),
        )
        assert "window-overrun" not in analyze_schedule(
            schedule, cube3
        ).counts()

    def test_under_and_over_scheduled(self, cube3):
        short = build(
            12.0, {"a": [slot("a", 8.0, 2.0, (0, 1))]},
            bounds=self.wrapped_bounds(duration=4.0),
        )
        assert "under-scheduled" in analyze_schedule(
            short, cube3
        ).counts()
        long = build(
            12.0,
            {"a": [slot("a", 8.0, 4.0, (0, 1)),
                   slot("a", 0.0, 2.0, (0, 1))]},
            bounds=self.wrapped_bounds(duration=4.0),
        )
        assert "over-scheduled" in analyze_schedule(long, cube3).counts()

    def test_recomputed_windows_catch_forged_bounds(self, compiled):
        # Stretch the embedded deadline of one message: the analyzer
        # recomputes bounds from the TFG timing and flags the drift.
        routing, timing, topology, allocation = compiled
        schedule = routing.schedule
        name = next(iter(schedule.bounds.bounds))
        b = schedule.bounds.bounds[name]
        schedule = dataclasses.replace(schedule, bounds=TimeBoundSet(
            schedule.tau_in, {**schedule.bounds.bounds, name: MessageTimeBounds(
                name=b.name, release=b.release, deadline=b.deadline + 1.0,
                duration=b.duration, windows=b.windows,
            )},
        ))
        report = analyze_schedule(
            schedule, topology, timing=timing, allocation=allocation
        )
        assert "bounds-mismatch" in report.counts()


class TestCompletenessFindings:
    def test_missing_message(self, compiled):
        routing, timing, topology, allocation = compiled
        schedule = routing.schedule
        name = next(iter(schedule.slots))
        schedule = dataclasses.replace(schedule, slots={
            other: slots for other, slots in schedule.slots.items()
            if other != name
        })
        report = analyze_schedule(
            schedule, topology, timing=timing, allocation=allocation
        )
        assert "missing-message" in report.counts()
        finding = next(
            f for f in report.findings if f.code == "missing-message"
        )
        assert finding.message == name

    def test_endpoint_mismatch(self, compiled):
        routing, timing, topology, allocation = compiled
        moved = dict(allocation)
        moved["t0"] = 7  # claim t0 lives elsewhere than the path says
        report = analyze_schedule(
            routing.schedule, topology, timing=timing, allocation=moved
        )
        assert "endpoint-mismatch" in report.counts()


class TestReportSurface:
    def test_finding_str_mentions_location(self, cube3):
        schedule = build(10.0, {
            "a": [slot("a", 0.0, 4.0, (0, 1))],
            "b": [slot("b", 3.0, 4.0, (0, 1))],
        })
        report = analyze_schedule(schedule, cube3)
        text = report.summary()
        assert "NON-CONFORMANT" in text
        assert "link=(0, 1)" in text

    def test_emit_produces_check_events(self, cube3):
        from repro.trace import TraceRecorder

        schedule = build(10.0, {
            "a": [slot("a", 0.0, 4.0, (0, 1))],
            "b": [slot("b", 3.0, 4.0, (0, 1))],
        })
        tracer = TraceRecorder()
        report = analyze_schedule(schedule, cube3, tracer=tracer)
        assert not report.ok
        assert len(tracer.events) == len(report.findings)
        event = tracer.events[0]
        assert event.category == "check"
        assert event.track.startswith("check:")
        assert event.args["severity"] == "error"

    def test_emit_respects_disabled_tracer(self, cube3):
        from repro.trace.tracer import NULL_TRACER

        schedule = build(10.0, {"a": [slot("a", 0.0, 4.0, (0, 1))]})
        report = analyze_schedule(schedule, cube3)
        assert report.emit(NULL_TRACER) == 0


class TestAnalyzeFile:
    def test_round_trip_clean(self, compiled, tmp_path):
        from repro.core.io import save_schedule

        routing, _, topology, _ = compiled
        path = tmp_path / "omega.json"
        save_schedule(routing.schedule, path)
        assert analyze_file(path, topology).ok

    def test_tampered_file_is_analyzable(self, compiled, tmp_path):
        # The loader's own validation would raise on this file; the
        # analyzer must still read it and report findings instead.
        from repro.core.io import load_schedule, save_schedule
        from repro.errors import ScheduleValidationError

        routing, _, topology, _ = compiled
        path = tmp_path / "omega.json"
        save_schedule(routing.schedule, path)
        data = json.loads(path.read_text())
        name = next(iter(data["slots"]))
        data["slots"][name][0]["duration"] *= 3.0
        path.write_text(json.dumps(data))

        with pytest.raises(ScheduleValidationError):
            load_schedule(path)
        report = analyze_file(path, topology)
        assert not report.ok

    @staticmethod
    def tampered(compiled, tmp_path, edit):
        """The compiled schedule saved, with ``edit`` applied to its JSON."""
        from repro.core.io import save_schedule

        path = tmp_path / "omega.json"
        save_schedule(compiled[0].schedule, path)
        data = json.loads(path.read_text())
        edit(data)
        path.write_text(json.dumps(data))
        return path

    @pytest.mark.parametrize("field", ["start", "duration"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_slot_is_a_frame_finding(
        self, compiled, tmp_path, field, value
    ):
        name = next(iter(compiled[0].schedule.slots))
        path = self.tampered(
            compiled, tmp_path,
            lambda data: data["slots"][name][0].update({field: value}),
        )
        finding = next(
            f for f in analyze_file(path, compiled[2]).findings
            if f.code == "slot-not-finite"
        )
        assert finding.message == name

    @pytest.mark.parametrize("field", ["path", "window"])
    def test_unparsable_field_is_the_loaders_refusal(
        self, compiled, tmp_path, field
    ):
        """The file is read by the loader's parse: a path nudged off its
        integer node ids (once truncated back and read CONFORMANT) or a
        one-number window (once an ``IndexError``) is the loader's typed
        refusal, naming the message."""
        from repro.core.io import load_schedule
        from repro.errors import ScheduleValidationError

        name = next(iter(compiled[0].schedule.slots))

        def edit(data):
            if field == "path":
                path = data["assignment"][name]
                data["assignment"][name] = [n + 0.25 for n in path]
            else:
                data["bounds"][name]["windows"] = [[0.0]]

        path = self.tampered(compiled, tmp_path, edit)
        with pytest.raises(ScheduleValidationError) as loaded:
            load_schedule(path)
        with pytest.raises(ScheduleValidationError) as analyzed:
            analyze_file(path, compiled[2])
        assert str(analyzed.value) == str(loaded.value)
        assert str(analyzed.value).startswith(f"message {name!r}: ")

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_period_is_a_bad_frame(
        self, compiled, tmp_path, value
    ):
        path = self.tampered(
            compiled, tmp_path, lambda data: data.update(tau_in=value)
        )
        report = analyze_file(path, compiled[2])
        assert report.counts() == {"bad-frame": 1}
        assert report.checks == ("frame",)
