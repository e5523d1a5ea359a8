"""Unit tests for the scheduled-routing executor (DES replay)."""

import pytest

from repro.check.fuzz import FuzzPoint
from repro.core.compiler import CompilerConfig, compile_schedule
from repro.core.executor import ScheduledRoutingExecutor
from repro.core.switching import TransmissionSlot
from repro.errors import (
    FaultedDeadlineError,
    FaultInjectionError,
    LinkFailedError,
    ScheduleValidationError,
    SchedulingError,
)
from repro.experiments import standard_setup
from repro.faults.models import ClockDrift, FaultTrace, LinkFault
from repro.sim import Monitor
from repro.tfg import TFGTiming, dvb_tfg
from repro.tfg.synth import chain_tfg
from repro.topology import make_topology
from repro.trace import TraceRecorder
from tests.conftest import with_slots


@pytest.fixture()
def chain_routing(cube3):
    timing = TFGTiming(chain_tfg(4, 400, 1280), 128.0, speeds=40.0)
    allocation = {"t0": 0, "t1": 1, "t2": 3, "t3": 7}
    routing = compile_schedule(timing, cube3, allocation, tau_in=40.0)
    return routing, timing, cube3, allocation


class TestAbsoluteSlots:
    def test_periodicity(self, chain_routing):
        routing, timing, topo, allocation = chain_routing
        executor = ScheduledRoutingExecutor(routing, timing, topo, allocation)
        for name in routing.schedule.slots:
            s0 = executor.absolute_slots(name, 0)
            s3 = executor.absolute_slots(name, 3)
            for (a0, b0), (a3, b3) in zip(s0, s3):
                assert a3 - a0 == pytest.approx(3 * routing.tau_in)
                assert b3 - b0 == pytest.approx(3 * routing.tau_in)

    def test_slots_inside_message_window(self, chain_routing):
        routing, timing, topo, allocation = chain_routing
        executor = ScheduledRoutingExecutor(routing, timing, topo, allocation)
        asap = timing.asap_schedule()
        for name in routing.schedule.slots:
            message = timing.tfg.message(name)
            for j in (0, 2):
                release = j * routing.tau_in + asap[message.src][1]
                deadline = release + timing.message_window
                for start, end in executor.absolute_slots(name, j):
                    assert start >= release - 1e-9
                    assert end <= deadline + 1e-9

    def test_total_time_matches_duration(self, chain_routing):
        routing, timing, topo, allocation = chain_routing
        executor = ScheduledRoutingExecutor(routing, timing, topo, allocation)
        for name in routing.schedule.slots:
            total = sum(
                end - start for start, end in executor.absolute_slots(name, 1)
            )
            assert total == pytest.approx(timing.xmit_time(name))


class TestRun:
    def test_constant_throughput(self, chain_routing):
        routing, timing, topo, allocation = chain_routing
        executor = ScheduledRoutingExecutor(routing, timing, topo, allocation)
        result = executor.run(invocations=16, warmup=2)
        assert result.technique == "scheduled"
        assert not result.has_oi()
        stats = result.throughput_stats()
        assert stats.minimum == pytest.approx(1.0)
        assert stats.maximum == pytest.approx(1.0)

    def test_latency_equals_windowed_asap(self, chain_routing):
        routing, timing, topo, allocation = chain_routing
        executor = ScheduledRoutingExecutor(routing, timing, topo, allocation)
        result = executor.run(invocations=16, warmup=2)
        expected = timing.asap_latency() / timing.critical_path().length
        stats = result.latency_stats()
        assert stats.minimum == pytest.approx(expected)
        assert stats.maximum == pytest.approx(expected)

    def test_needs_enough_invocations(self, chain_routing):
        routing, timing, topo, allocation = chain_routing
        executor = ScheduledRoutingExecutor(routing, timing, topo, allocation)
        with pytest.raises(ScheduleValidationError):
            executor.run(invocations=4, warmup=2)

    def test_tampered_schedule_detected(self, chain_routing):
        """Injecting a contention bug into Omega must be caught at replay."""
        routing, timing, topo, allocation = chain_routing
        # Shift one message's slots outside its window / onto a busy link.
        name = next(iter(routing.schedule.slots))
        slots = routing.schedule.slots[name]
        shifted = tuple(
            TransmissionSlot(s.message, (s.start + 7.0) % routing.tau_in,
                             s.duration, s.path)
            for s in slots
        )
        routing = with_slots(routing, name, shifted)
        with pytest.raises(ScheduleValidationError):
            ScheduledRoutingExecutor(routing, timing, topo, allocation).run(
                invocations=12, warmup=2
            )

    def test_back_to_back_windows_hand_the_link_over(self, chain_routing):
        """end == start on one link: the release is handled before the
        claim of the same instant, so nothing queues and nothing blocks."""
        routing, timing, topo, allocation = chain_routing
        (slot,) = routing.schedule.slots["m0"]
        half = slot.duration / 2
        routing = with_slots(routing, "m0", (
            TransmissionSlot("m0", slot.start, half, slot.path),
            TransmissionSlot("m0", slot.start + half, half, slot.path),
        ))
        executor = ScheduledRoutingExecutor(routing, timing, topo, allocation)
        tracer = TraceRecorder(categories=("link",))
        result = executor.run(invocations=12, warmup=2, tracer=tracer)
        assert not result.has_oi()
        assert tracer.spans("link", name="blocked") == []
        windows = [w for j in range(12) for w in executor.absolute_slots("m0", j)]
        assert all(a[1] == b[0] for a, b in zip(windows[::2], windows[1::2]))
        assert sorted(
            (e.time, e.end) for e in tracer.spans("link", track=str(slot.links[0]))
        ) == windows
        assert result.extra["link_busy"][slot.links[0]] == pytest.approx(
            12 * slot.duration
        )


def _full_replay(executor, invocations):
    """A run that replays every invocation: its tracer is enabled, and it
    keeps no category the executor emits."""
    return executor.run(
        invocations=invocations, warmup=2,
        tracer=TraceRecorder(categories=("check",)),
    )


class TestReplayedPeriods:
    """A fault-free, untraced run replays invocations 0..K and writes the
    rest down; faulted and traced runs replay every invocation."""

    def test_overlap_is_the_frames_invocation_zero_spans(self, chain_routing):
        # t3 finishes at 70 with tau_in = 40: K = ceil(70 / 40) = 2.
        executor = ScheduledRoutingExecutor(*chain_routing)
        assert executor.overlap == 2

    @pytest.mark.parametrize("invocations", [6, 12, 24])
    def test_short_replay_equals_the_full_one(self, chain_routing, invocations):
        executor = ScheduledRoutingExecutor(*chain_routing)
        short = executor.run(invocations=invocations, warmup=2)
        full = _full_replay(executor, invocations)
        assert short.completion_times == full.completion_times
        assert len(short.completion_times) == invocations
        assert short.extra["invocations"] == invocations
        assert short.extra["link_busy"].keys() == full.extra["link_busy"].keys()
        for link, busy in full.extra["link_busy"].items():
            assert short.extra["link_busy"][link] == pytest.approx(
                busy, abs=1e-9
            )

    def test_outage_past_the_replayed_periods_is_detected(self, chain_routing):
        """An outage from invocation K + 3 on is met by m0's claim of
        that invocation, as a replay of every invocation meets it."""
        executor = ScheduledRoutingExecutor(*chain_routing)
        k = executor.overlap
        claim = executor.absolute_slots("m0", k + 3)[0][0]
        assert claim == 210.0
        trace = FaultTrace(
            link_faults=(LinkFault((0, 1), (k + 3) * executor.tau_in),)
        )
        with pytest.raises(LinkFailedError) as info:
            executor.run(invocations=12, warmup=2, fault_trace=trace)
        assert info.value.link == (0, 1)
        assert info.value.detection_time == claim

    @pytest.mark.parametrize("offset,error", [
        (-15.0, FaultInjectionError), (1000.0, FaultedDeadlineError),
    ])
    def test_drifted_run_raises_its_fault_error(
        self, chain_routing, offset, error
    ):
        """m1 re-routed over m0's link: an early t0 clock moves m0's
        window into m1's (contention), a late one past t1's start."""
        routing, timing, topo, allocation = chain_routing
        routing = with_slots(routing, "m1", tuple(
            TransmissionSlot("m1", s.start, s.duration, (1, 0, 2, 3))
            for s in routing.schedule.slots["m1"]
        ))
        executor = ScheduledRoutingExecutor(routing, timing, topo, allocation)
        trace = FaultTrace(drifts=(ClockDrift(allocation["t0"], offset),))
        with pytest.raises(FaultInjectionError) as info:
            executor.run(invocations=12, warmup=2, fault_trace=trace)
        assert type(info.value) is error

    def test_traced_run_records_every_invocation(self, chain_routing):
        executor = ScheduledRoutingExecutor(*chain_routing)
        invocations = executor.overlap + 6
        tracer = TraceRecorder(categories=("task", "run"))
        executor.run(invocations=invocations, warmup=2, tracer=tracer)
        assert {e.args["invocation"] for e in tracer.spans("task")} == set(
            range(invocations)
        )
        assert len(tracer.instants("run", name="completion")) == invocations

    def test_a_lost_completion_is_an_error(self, chain_routing, monkeypatch):
        class Forgetful(Monitor):
            def record(self, time, value):
                if value != 1:
                    super().record(time, value)

        monkeypatch.setattr("repro.core.executor.Monitor", Forgetful)
        executor = ScheduledRoutingExecutor(*chain_routing)
        with pytest.raises(ScheduleValidationError, match="3 invocations "
                           "replayed, 2 completed"):
            executor.run(invocations=12, warmup=2)

    @pytest.mark.parametrize("skew", [-1, 1], ids=["repeated", "dropped"])
    def test_an_extension_off_by_one_is_an_error(
        self, chain_routing, monkeypatch, skew
    ):
        """The written-down completions must continue the replayed ones
        one period apart: repeating or skipping an invocation fails."""
        written = ScheduledRoutingExecutor._completion_time
        monkeypatch.setattr(
            ScheduledRoutingExecutor, "_completion_time",
            lambda self, j: written(self, j + skew),
        )
        executor = ScheduledRoutingExecutor(*chain_routing)
        with pytest.raises(ScheduleValidationError, match="not one period"):
            executor.run(invocations=12, warmup=2)


def _closed_form_busy(routing, invocations):
    busy = {}
    for slots in routing.schedule.slots.values():
        for slot in slots:
            for link in slot.links:
                busy[link] = busy.get(link, 0.0) + invocations * slot.duration
    return busy


class TestClosedForm:
    """What a contention-free periodic table must replay to, exactly:
    the rewrite of the replay loop may not move either series."""

    def test_completions_and_link_busy_on_a_fuzz_corpus(self):
        feasible = 0
        for seed in range(12):
            timing, topology, allocation, tau_in = FuzzPoint.from_seed(
                seed
            ).build()
            try:
                routing = compile_schedule(
                    timing, topology, allocation, tau_in,
                    CompilerConfig(
                        seed=0, max_paths=16, max_restarts=2, retries=1
                    ),
                )
            except SchedulingError:
                continue
            feasible += 1
            result = ScheduledRoutingExecutor(
                routing, timing, topology, allocation
            ).run(invocations=8, warmup=4)
            asap = timing.asap_schedule()
            last = max(asap[t.name][1] for t in timing.tfg.output_tasks)
            assert result.completion_times == pytest.approx(
                [j * tau_in + last for j in range(8)], abs=1e-9
            )
            expected = _closed_form_busy(routing, 8)
            observed = result.extra["link_busy"]
            assert observed.keys() == expected.keys()
            for link, busy in expected.items():
                assert observed[link] == pytest.approx(busy, abs=1e-9)
        assert feasible >= 6


#: The three pipeline_sim points ISSUE 15 quotes, built as
#: benchmarks/e2e/inputs.py builds them (DVB(5), B = 128, its compiler
#: config), replayed for 24 invocations: (topology, load).
BUDGET_POINTS = [("hypercube6", 0.9), ("ghc444", 0.3), ("torus8x8", 0.7714285714)]


class TestEventBudget:
    @pytest.mark.parametrize("name,load", BUDGET_POINTS)
    def test_kernel_steps_within_two_per_flight(self, name, load):
        """One timeline alarm per distinct instant plus one grant entry
        per *queued* link claim: at most 2F + T + Q + 1 agenda steps.  A
        claim granted on the spot schedules nothing (it took one step
        per link claim, 2F + sum(L) + T + 8 in all)."""
        setup = standard_setup(dvb_tfg(5), make_topology(name), 128.0)
        routing = compile_schedule(
            setup.timing, setup.topology, setup.allocation,
            setup.tau_in_for_load(load),
            CompilerConfig(seed=0, max_paths=48, max_restarts=4, retries=2),
        )
        executor = ScheduledRoutingExecutor(
            routing, setup.timing, setup.topology, setup.allocation
        )
        tracer = TraceRecorder(categories=("sim",))
        executor.run(invocations=24, warmup=6, tracer=tracer)
        flights = 24 * sum(len(s) for s in routing.schedule.slots.values())
        claims = 24 * sum(
            len(slot.links)
            for slots in routing.schedule.slots.values()
            for slot in slots
        )
        tasks = 24 * len(setup.timing.tfg.tasks)
        steps = [e.args["event"] for e in tracer.instants("sim", name="step")]
        queued = steps.count("late_grant")
        assert set(steps) <= {"arm", "fire", "late_grant"}
        assert steps.count("arm") == 1
        assert queued < claims
        assert len(steps) <= 2 * flights + tasks + queued + 1
