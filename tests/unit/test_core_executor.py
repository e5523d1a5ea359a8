"""Unit tests for the scheduled-routing executor (DES replay)."""

import dataclasses
from types import SimpleNamespace

import pytest

from repro.check.fuzz import FuzzPoint
from repro.core.compiler import CompilerConfig, compile_schedule
from repro.core.executor import ScheduledRoutingExecutor
from repro.core.switching import TransmissionSlot
from repro.errors import (
    FaultedDeadlineError,
    FaultInjectionError,
    LinkFailedError,
    ReproError,
    ScheduleValidationError,
    SchedulingError,
)
from repro.experiments import standard_setup
from repro.faults.models import ClockDrift, FaultTrace, LinkFault
from repro.sim import Monitor, Resource
from repro.tfg import TFGTiming, dvb_tfg
from repro.tfg.synth import chain_tfg
from repro.topology import make_topology
from repro.trace import TraceRecorder
from tests.conftest import pins, with_slots


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


def _outcome(run):
    """What a run shows: its error's type and text, or its completion
    times as ``float.hex`` and its ``link_busy``."""
    try:
        result = run()
    except ReproError as error:
        return type(error), str(error)
    return [t.hex() for t in result.completion_times], result.extra["link_busy"]


def _assert_short_equals_full(executor, invocations):
    """The default run shows what a full replay of max(n, K + 1)
    invocations shows: the same error, or the same first n completions
    and (against a full replay of the n asked) ``link_busy`` within
    1e-9."""
    short = _outcome(lambda: executor.run(invocations=invocations, warmup=2))
    full = _outcome(lambda: _full_replay(
        executor, max(invocations, executor.overlap + 1)
    ))
    if isinstance(full[0], type):
        assert short == full
        return
    completions, busy = short
    assert completions == full[0][:invocations]
    _, expected = _outcome(lambda: _full_replay(executor, invocations))
    assert busy.keys() == expected.keys()
    for link, value in expected.items():
        assert busy[link] == pytest.approx(value, abs=1e-9)


class ClaimCounter(Resource):
    """A link that counts the claims made on every link."""

    claims = 0

    def claim(self, owner=None, on_grant=None):
        ClaimCounter.claims += 1
        return super().claim(owner, on_grant)


@pytest.fixture(scope="module")
def sim_points():
    """The ``pipeline_sim`` schedules as the benchmark builds them: per
    point, ``(routing, timing, topology, allocation)``."""
    inputs, points = pins().inputs, []
    instances = inputs.Instances()
    for name, load in inputs.SIM_POINTS:
        timing, topology, allocation, tau_in = instances.dvb(
            5, name, 128.0, load
        )
        routing = compile_schedule(
            timing, topology, allocation, tau_in, inputs.compiler_config()
        )
        points.append((routing, timing, topology, allocation))
    return points


@pytest.fixture(scope="module")
def kill_executors():
    """An executor per mutant of the ``check.kill_matrix`` corpus (seeds
    0-3) that it accepts at construction."""
    executors = []
    for _, mutated, routing, problem in pins().kill_corpus():
        stand_in = SimpleNamespace(node_schedules=mutated.node_schedules)
        try:
            executors.append(ScheduledRoutingExecutor(
                dataclasses.replace(routing, schedule=stand_in), *problem
            ))
        except ReproError:
            continue
    return executors


class TestReplayedPeriods:
    """A fault-free, untraced run replays the task finishes of
    invocations 0..K but claims links only for the windows that meet
    period K, [K tau_in, (K + 1) tau_in), where every collision has a
    translate; it writes the rest down.  A rejection is replayed with
    every window of 0..K, so its text is a full replay's.  Faulted and
    traced runs replay every window of every invocation."""

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

    @pytest.mark.parametrize("invocations", [6, 12, 24])
    def test_short_replay_equals_the_full_one_on_the_kill_corpus(
        self, kill_executors, invocations
    ):
        """Same verdict, error type and text, completions and busy time
        as a full replay."""
        assert len(kill_executors) >= 100
        for executor in kill_executors:
            _assert_short_equals_full(executor, invocations)

    @pytest.mark.parametrize("invocations", [24, 48])
    def test_short_replay_equals_the_full_one_on_the_benchmark(
        self, sim_points, invocations
    ):
        for point in sim_points:
            _assert_short_equals_full(
                ScheduledRoutingExecutor(*point), invocations
            )

    def test_a_collision_with_a_window_begun_before_period_k_is_found(
        self, cube3
    ):
        """m2's head circuit starts 5e-10 before each period (its frame
        time is inside the frame's EPS) and meets m1's first circuit,
        re-routed over link (3, 7).  The translate in period K pairs m1
        starting at K tau_in with m2 starting just before it: a replay
        that filed only the windows starting inside the period would
        miss the collision."""
        topology = cube3
        timing = TFGTiming(
            chain_tfg(4, 400, 1280), 128.0, speeds=40.0, message_window=20.0
        )
        allocation = {"t0": 0, "t1": 1, "t2": 3, "t3": 7}
        routing = compile_schedule(timing, topology, allocation, tau_in=40.0)
        routing = with_slots(routing, "m1", (
            TransmissionSlot("m1", 0.0, 5.0, (1, 5, 7, 3)),
            TransmissionSlot("m1", 10.0, 5.0, (1, 3)),
        ))
        routing = with_slots(routing, "m2", (
            TransmissionSlot("m2", -5e-10, 5.0, (3, 7)),
            TransmissionSlot("m2", 30.0, 5.0, (3, 7)),
        ))
        executor = ScheduledRoutingExecutor(
            routing, timing, topology, allocation
        )
        k, tau_in = executor.overlap, executor.tau_in
        assert k == 3
        assert executor.absolute_slots("m1", k - 1)[0][0] == k * tau_in
        begun, ends = executor.absolute_slots("m2", k - 2)[0]
        assert begun < k * tau_in < ends
        with pytest.raises(ScheduleValidationError) as info:
            executor.run(invocations=12, warmup=2)
        assert str(info.value) == (
            "contention on (3, 7) while transmitting 'm1' at t=85.000000"
        )
        assert _outcome(lambda: _full_replay(executor, 12)) == (
            ScheduleValidationError, str(info.value)
        )

    def test_claims_of_a_short_run(self, sim_points, monkeypatch):
        """A window meets period K at most twice (it is no longer than
        the frame), so a short run claims at most twice the links one
        frame's circuits hold, where a full replay of 24 claims K + 1
        (at least 4) times as many."""
        monkeypatch.setattr("repro.core.executor.Resource", ClaimCounter)
        for point in sim_points:
            executor = ScheduledRoutingExecutor(*point)
            frame = sum(
                len(circuit.path) - 1
                for circuits in executor.circuits.values()
                for circuit in circuits
            )
            ClaimCounter.claims = 0
            executor.run(invocations=24, warmup=6)
            assert ClaimCounter.claims <= 2 * frame
            ClaimCounter.claims = 0
            _full_replay(executor, 24)
            assert ClaimCounter.claims == 24 * frame

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
