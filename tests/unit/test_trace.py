"""Unit tests of the tracing layer: tracer, exporters, compile stages."""

from __future__ import annotations

import json

import pytest

from repro.sim import Environment, Resource
from repro.tfg import TFGTiming
from repro.tfg.graph import build_tfg
from repro.trace import (
    NULL_TRACER,
    TraceEvent,
    Tracer,
    TraceRecorder,
    stage_rows,
    stage_table,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.trace.export import COMPILE_PID, SIM_PID
from repro.trace.tracer import TRACE_CATEGORIES


@pytest.fixture()
def claim_routing(cube3):
    """A small compiled schedule (the Section-3 witness) for CP replay."""
    from repro.core.compiler import compile_schedule

    tfg = build_tfg(
        "claim3",
        [("t0", 400), ("t1", 400), ("t2", 400)],
        [("M1", "t0", "t1", 1280), ("M2", "t1", "t2", 1280)],
    )
    timing = TFGTiming(tfg, 128.0, speeds=40.0)
    return compile_schedule(
        timing, cube3, {"t0": 0, "t1": 3, "t2": 1}, tau_in=12.0
    )


class TestNullTracer:
    def test_disabled_and_records_nothing(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.instant("link", "occupy", 1.0, track="L")
        NULL_TRACER.span("link", "occupy", 1.0, 2.0, track="L")
        assert NULL_TRACER.events == ()

    def test_default_environment_uses_null_tracer(self):
        env = Environment()
        assert env.tracer is NULL_TRACER
        env.call_later(1.0, print, None)
        env.run()
        assert env.tracer.events == ()


class TestTraceEvent:
    def test_span_vs_instant(self):
        span = TraceEvent("link", "occupy", 2.0, 3.0, "L")
        instant = TraceEvent("run", "completion", 5.0)
        assert span.is_span and span.end == 5.0
        assert not instant.is_span and instant.end == instant.time


class TestTraceRecorder:
    def test_records_instants_and_spans(self):
        rec = TraceRecorder()
        assert rec.enabled is True
        rec.instant("run", "completion", 10.0, track="outputs", invocation=3)
        rec.span("link", "occupy", 1.0, 4.0, track="(0, 1)", owner="M1")
        assert len(rec) == 2
        (inst,) = rec.instants("run")
        assert inst.args["invocation"] == 3
        (span,) = rec.spans("link")
        assert span.duration == pytest.approx(3.0)
        assert span.args["owner"] == "M1"

    def test_category_filter_drops_unwanted(self):
        rec = TraceRecorder(categories=("link",))
        rec.instant("sim", "step", 0.0)
        rec.span("link", "occupy", 0.0, 1.0, track="L")
        assert not rec.wants("sim") and rec.wants("link")
        assert [e.category for e in rec.events] == ["link"]

    def test_select_by_name_and_track(self):
        rec = TraceRecorder()
        rec.span("link", "occupy", 0.0, 1.0, track="A")
        rec.span("link", "occupy", 2.0, 3.0, track="B")
        rec.span("link", "blocked", 1.0, 2.0, track="A")
        assert len(rec.select("link", "occupy")) == 2
        assert len(rec.select("link", track="A")) == 2
        assert rec.tracks() == ["A", "B"]

    def test_occupancy_timelines_sorted_with_owner(self):
        rec = TraceRecorder()
        rec.span("link", "occupy", 5.0, 6.0, track="L", owner="M2")
        rec.span("link", "occupy", 1.0, 2.0, track="L", owner="M1")
        assert rec.occupancy() == {"L": [(1.0, 2.0, "M1"), (5.0, 6.0, "M2")]}


class TestResourceTracing:
    """Resource emits occupy/blocked spans only onto an enabled tracer."""

    def test_occupy_and_blocked_spans(self):
        rec = TraceRecorder()
        env = Environment(tracer=rec)
        link = Resource(env, name="(0, 1)")

        def hold(duration):
            return lambda claim: env.call_later(duration, link.release, claim)

        link.claim(owner="M1", on_grant=hold(5.0))
        env.call_later(
            1.0, lambda _: link.claim(owner="M2", on_grant=hold(2.0)), None
        )
        env.run()
        occupancy = rec.occupancy()["(0, 1)"]
        assert occupancy == [(0.0, 5.0, "M1"), (5.0, 7.0, "M2")]
        (blocked,) = rec.spans("link", name="blocked")
        assert blocked.time == pytest.approx(1.0)
        assert blocked.end == pytest.approx(5.0)

    def test_sim_category_captures_kernel_activity(self):
        rec = TraceRecorder(categories=("sim",))
        env = Environment(tracer=rec)

        def tick(_):
            pass

        env.call_later(1.0, tick, None)
        env.run()
        (schedule,) = rec.select("sim", "schedule")
        (step,) = rec.select("sim", "step")
        assert schedule.args == {"due": 1.0, "event": "tick"}
        assert (step.time, step.args) == (1.0, {"event": "tick"})


class TestCrossbarTracing:
    def test_replay_emits_switch_spans_per_cp(self, claim_routing, cube3):
        from repro.cp import replay_schedule

        rec = TraceRecorder()
        executed = replay_schedule(claim_routing.schedule, cube3, tracer=rec)
        switches = rec.spans("crossbar", name="switch")
        assert len(switches) == executed
        assert all(s.track.startswith("CP") for s in switches)
        # Every command names its message and ports in the args.
        sample = switches[0]
        assert {"input", "output", "message"} <= set(sample.args)

    def test_replay_without_tracer_is_silent(self, claim_routing, cube3):
        from repro.cp import replay_schedule

        assert replay_schedule(claim_routing.schedule, cube3) > 0


class TestChromeExport:
    def test_structure_and_pid_split(self):
        events = [
            TraceEvent("link", "occupy", 1.0, 2.0, "(0, 1)", {"owner": "M1"}),
            TraceEvent("run", "completion", 9.0, 0.0, "outputs"),
            TraceEvent("compile", "assign-paths", 0.0, 4.0, "compiler"),
        ]
        doc = to_chrome_trace(events)
        recs = doc["traceEvents"]
        spans = [r for r in recs if r.get("ph") == "X"]
        instants = [r for r in recs if r.get("ph") == "i"]
        metadata = [r for r in recs if r.get("ph") == "M"]
        assert len(spans) == 2 and len(instants) == 1
        link_span = next(r for r in spans if r["cat"] == "link")
        assert link_span["pid"] == SIM_PID
        assert link_span["ts"] == 1.0 and link_span["dur"] == 2.0
        assert link_span["args"]["owner"] == "M1"
        compile_span = next(r for r in spans if r["cat"] == "compile")
        assert compile_span["pid"] == COMPILE_PID
        names = {
            (m["pid"], m["args"]["name"])
            for m in metadata
            if m["name"] == "thread_name"
        }
        assert (SIM_PID, "(0, 1)") in names
        assert (COMPILE_PID, "compiler") in names

    def test_write_chrome_trace_roundtrips(self, tmp_path):
        path = tmp_path / "trace.json"
        events = [TraceEvent("link", "occupy", 0.0, 1.0, "L")]
        assert write_chrome_trace(events, str(path)) == str(path)
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert any(r.get("ph") == "X" for r in doc["traceEvents"])


class TestCompileStageSpans:
    def test_stages_record_wall_time_and_late_detail(self):
        rec = TraceRecorder()
        with rec.stage("alpha", messages=3) as detail:
            detail["subsets"] = 2
        with rec.stage("beta"):
            pass
        alpha, beta = rec.spans("compile", track="compiler")
        assert (alpha.name, beta.name) == ("alpha", "beta")
        assert alpha.args == {"messages": 3, "subsets": 2}
        assert 0.0 <= alpha.time <= alpha.end <= beta.time
        rows = stage_rows(rec.events)
        assert [row["stage"] for row in rows] == ["alpha", "beta"]
        assert rows[0]["wall_ms"] == pytest.approx(alpha.duration / 1000.0)
        assert rows[0]["start_ms"] == pytest.approx(alpha.time / 1000.0)

    def test_stage_recorded_even_on_error(self):
        rec = TraceRecorder()
        with pytest.raises(RuntimeError):
            with rec.stage("failing"):
                raise RuntimeError("boom")
        assert [row["stage"] for row in stage_rows(rec.events)] == ["failing"]

    def test_stage_table_and_rows_read_only_compile_spans(self):
        rec = TraceRecorder()
        rec.span("link", "occupy", 0.0, 1.0, track="L")
        with rec.stage("alpha", messages=3):
            pass
        table = stage_table(rec.events)
        assert "compile profile" in table
        assert "alpha" in table and "messages=3" in table
        assert table.splitlines()[-1].startswith("TOTAL")
        assert len(stage_rows(rec.events)) == 1
        filtered = TraceRecorder(categories=("link",))
        with filtered.stage("alpha"):
            pass
        assert filtered.events == ()

    def test_null_tracer_stage_is_inert(self):
        with NULL_TRACER.stage("anything", size=1) as detail:
            detail["late"] = True
        assert NULL_TRACER.events == ()


class TestTracerContract:
    def test_recorder_is_a_tracer(self):
        assert isinstance(TraceRecorder(), Tracer)


class TestTaxonomy:
    """A category outside ``TRACE_CATEGORIES`` fails where it is used."""

    def test_taxonomy_matches_docstring_sections(self):
        import repro.trace.tracer as tracer_mod

        assert len(TRACE_CATEGORIES) == len(set(TRACE_CATEGORIES)) == 12
        for category in TRACE_CATEGORIES:
            assert f"``{category}``" in tracer_mod.__doc__

    def test_unknown_category_raises_at_the_emit(self):
        rec = TraceRecorder()
        with pytest.raises(ValueError, match="'compiler'"):
            rec.instant("compiler", "stage", 0.0)
        with pytest.raises(ValueError, match="'links'"):
            rec.span("links", "occupy", 0.0, 1.0)
        with pytest.raises(ValueError, match="'fault2'"):
            TraceEvent(category="fault2", name="down", time=0.0)
        assert rec.events == ()

    def test_unknown_category_in_filter_raises(self):
        with pytest.raises(ValueError, match="bogus"):
            TraceRecorder(categories=["serve", "bogus"])

    def test_null_tracer_stays_a_silent_no_op(self):
        # The zero-cost contract: the null object constructs nothing,
        # so it has nothing to validate.
        NULL_TRACER.instant("bogus", "tick", 0.0)
        NULL_TRACER.span("bogus", "tick", 0.0, 1.0)
        assert NULL_TRACER.events == ()
