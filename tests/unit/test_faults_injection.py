"""Unit tests for runtime fault injection (kernel, SR executor, wormhole)."""

import pytest

from repro.core.compiler import compile_schedule
from repro.core.executor import ScheduledRoutingExecutor
from repro.core.switching import TransmissionSlot
from repro.errors import (
    FaultedDeadlineError,
    FaultInjectionError,
    LinkFailedError,
    SimulationError,
)
from repro.faults.injection import FaultInjector
from repro.faults.models import ClockDrift, FaultTrace, LinkFault, NodeFault
from repro.sim import Environment, Resource
from repro.tfg import TFGTiming
from repro.tfg.synth import chain_tfg
from repro.wormhole import WormholeSimulator
from repro.wormhole.adaptive import AdaptiveWormholeSimulator
from tests.conftest import pins


@pytest.fixture()
def chain_exec(cube3):
    timing = TFGTiming(chain_tfg(4, 400, 1280), 128.0, speeds=40.0)
    allocation = {"t0": 0, "t1": 1, "t2": 3, "t3": 7}
    routing = compile_schedule(timing, cube3, allocation, tau_in=40.0)
    executor = ScheduledRoutingExecutor(routing, timing, cube3, allocation)
    return executor, routing, timing, allocation


def _used_link(routing):
    """A link the compiled schedule transmits on."""
    for slots in routing.schedule.slots.values():
        for slot in slots:
            return slot.links[0]
    raise AssertionError("schedule routes no messages")


class TestFaultInjector:
    def test_transient_outage_fails_and_restores(self, cube3):
        env = Environment()
        links = {link: Resource(env, name=str(link)) for link in cube3.links}
        trace = FaultTrace(link_faults=(LinkFault((0, 1), 5.0, duration=10.0),))
        injector = FaultInjector(env, links, trace, cube3)

        observed = {}

        def probe(when):
            observed[when] = links[(0, 1)].failed

        env.call_later(6.0, probe, "during")
        env.call_later(26.0, probe, "after")
        env.run()
        assert observed == {"during": True, "after": False}
        assert list(injector.events) == [
            (5.0, ("down", (0, 1))),
            (15.0, ("up", (0, 1))),
        ]

    def test_permanent_outage_never_restores(self, cube3):
        env = Environment()
        links = {link: Resource(env, name=str(link)) for link in cube3.links}
        trace = FaultTrace(link_faults=(LinkFault((0, 1), 2.0),))
        injector = FaultInjector(env, links, trace, cube3)
        env.run()
        assert links[(0, 1)].failed
        assert injector.failed_links() == frozenset({(0, 1)})
        assert [value for _, value in injector.events] == [("down", (0, 1))]

    def test_overlapping_outages_reference_counted(self, cube3):
        env = Environment()
        links = {link: Resource(env, name=str(link)) for link in cube3.links}
        trace = FaultTrace(link_faults=(
            LinkFault((0, 1), 0.0, duration=10.0),
            LinkFault((0, 1), 5.0, duration=10.0),
        ))
        injector = FaultInjector(env, links, trace, cube3)

        observed = {}

        def probe(when):
            observed[when] = links[(0, 1)].failed

        env.call_later(12.0, probe, "mid")  # first outage over, second on
        env.run()
        assert observed["mid"] is True
        assert not links[(0, 1)].failed  # both outages over
        ups = [v for _, v in injector.events if v[0] == "up"]
        assert len(ups) == 1  # only the last restore resurrects the link

    def test_node_fault_downs_incident_links(self, cube3):
        env = Environment()
        links = {link: Resource(env, name=str(link)) for link in cube3.links}
        trace = FaultTrace(node_faults=(NodeFault(0, 1.0),))
        injector = FaultInjector(env, links, trace, cube3)
        env.run()
        assert injector.failed_links() == frozenset({(0, 1), (0, 2), (0, 4)})


def test_fault_timelines_are_pinned():
    """Every runner under link, node and same-instant outages: completion
    times, fault events, error class and detection time, and the non-
    ``sim`` trace, bit for bit."""
    assert pins().produce("faults.timelines") == pins().pinned("faults.timelines")


class TestExecutorUnderFaults:
    def test_empty_trace_behaves_healthy(self, chain_exec):
        executor, *_ = chain_exec
        healthy = executor.run(invocations=12, warmup=2)
        faulted = executor.run(
            invocations=12, warmup=2, fault_trace=FaultTrace()
        )
        assert faulted.completion_times == healthy.completion_times
        assert "fault_events" in faulted.extra
        assert len(faulted.extra["fault_events"]) == 0

    def test_link_failure_detected_at_claim(self, chain_exec):
        executor, routing, *_ = chain_exec
        link = _used_link(routing)
        trace = FaultTrace(link_faults=(LinkFault(link, 50.0),))
        with pytest.raises(LinkFailedError) as info:
            executor.run(invocations=12, warmup=2, fault_trace=trace)
        assert info.value.link == link
        assert info.value.detection_time >= 50.0

    def test_transient_failure_outside_slots_is_harmless(self, chain_exec):
        executor, routing, *_ = chain_exec
        # The frame repeats every tau_in=40; a fault that lives entirely
        # inside an idle stretch of an *unused* link changes nothing.
        used = {
            link
            for slots in routing.schedule.slots.values()
            for slot in slots
            for link in slot.links
        }
        spare = next(
            link for link in executor.topology.links if link not in used
        )
        trace = FaultTrace(link_faults=(LinkFault(spare, 10.0, duration=5.0),))
        result = executor.run(invocations=12, warmup=2, fault_trace=trace)
        assert not result.has_oi()

    # Ties between an outage edge and a claim.  Slot m0 holds link (0, 1)
    # over [130, 140] in invocation 3; the timeline instant before 130 is
    # 120.  An outage that *starts* at the claim instant is seen by the
    # claim; one *restored* at the claim instant is not yet over for it,
    # whether it began before or after the previous timeline instant.
    @pytest.mark.parametrize(
        "start,duration",
        [(130.0, None), (129.0, 1.0), (125.0, 5.0), (115.0, 15.0)],
    )
    def test_outage_edge_at_claim_instant_is_detected(
        self, chain_exec, start, duration
    ):
        executor, *_ = chain_exec
        assert executor.absolute_slots("m0", 3) == [(130.0, 140.0)]
        trace = FaultTrace(link_faults=(LinkFault((0, 1), start, duration),))
        with pytest.raises(LinkFailedError) as info:
            executor.run(invocations=12, warmup=2, fault_trace=trace)
        assert info.value.link == (0, 1)
        assert info.value.detection_time == 130.0

    def test_outage_just_after_claim_instant_is_not_detected(self, chain_exec):
        """A holder keeps its grant: the window [130, 140] outlives an
        outage over [130.001, 131.001]; a permanent one is met by the next
        claim, at 170."""
        executor, *_ = chain_exec
        trace = FaultTrace(link_faults=(LinkFault((0, 1), 130.001, 1.0),))
        result = executor.run(invocations=12, warmup=2, fault_trace=trace)
        assert list(result.extra["fault_events"]) == [
            (130.001, ("down", (0, 1))),
            (131.001, ("up", (0, 1))),
        ]
        trace = FaultTrace(link_faults=(LinkFault((0, 1), 130.001),))
        with pytest.raises(LinkFailedError) as info:
            executor.run(invocations=12, warmup=2, fault_trace=trace)
        assert info.value.detection_time == 170.0

    def test_drift_contention_is_a_fault_error(self, chain_exec):
        """An early clock moves m0's window [50, 60] onto [35, 45], into a
        window of m1 re-routed over the same link: the claim queues behind
        the holder, and the late hand-over is blamed on the machine."""
        executor, routing, _, allocation = chain_exec
        routing.schedule.slots["m1"] = tuple(
            TransmissionSlot("m1", s.start, s.duration, (0, 1, 3))
            for s in routing.schedule.slots["m1"]
        )
        assert executor.absolute_slots("m1", 0) == [(30.0, 40.0)]
        executor.run(invocations=12, warmup=2)  # clean on a healthy machine
        trace = FaultTrace(drifts=(ClockDrift(allocation["t0"], -15.0),))
        with pytest.raises(FaultInjectionError, match="contention") as info:
            executor.run(invocations=12, warmup=2, fault_trace=trace)
        assert info.value.detection_time == 40.0

    def test_large_drift_misses_deadline(self, chain_exec):
        executor, routing, timing, allocation = chain_exec
        # Shift t0's clock (source of the first routed message) far enough
        # that its delivery lands after the destination task started.
        trace = FaultTrace(drifts=(ClockDrift(allocation["t0"], 1000.0),))
        with pytest.raises(FaultedDeadlineError) as info:
            executor.run(invocations=12, warmup=2, fault_trace=trace)
        assert info.value.actual > info.value.due

    def test_drift_error_is_fault_not_schedule_bug(self, chain_exec):
        executor, _, _, allocation = chain_exec
        trace = FaultTrace(drifts=(ClockDrift(allocation["t0"], 1000.0),))
        with pytest.raises(FaultInjectionError):
            executor.run(invocations=12, warmup=2, fault_trace=trace)


class TestWormholeUnderFaults:
    @pytest.fixture()
    def chain_wr(self, cube3):
        timing = TFGTiming(chain_tfg(4, 400, 1280), 128.0, speeds=40.0)
        allocation = {"t0": 0, "t1": 1, "t2": 3, "t3": 7}
        return timing, allocation

    def test_transient_fault_delays_but_completes(self, cube3, chain_wr):
        timing, allocation = chain_wr
        simulator = WormholeSimulator(timing, cube3, allocation)
        trace = FaultTrace(
            link_faults=(LinkFault((0, 1), 0.0, duration=35.0),)
        )
        result = simulator.run(
            tau_in=40.0, invocations=12, warmup=4, fault_trace=trace
        )
        healthy = simulator.run(tau_in=40.0, invocations=12, warmup=4)
        # The outage stalls early flights, so completion shifts right.
        assert result.completion_times[0] > healthy.completion_times[0]
        assert "fault_events" in result.extra

    def test_deterministic_router_stuck_on_permanent_fault(
        self, cube3, chain_wr
    ):
        timing, allocation = chain_wr
        simulator = WormholeSimulator(timing, cube3, allocation)
        trace = FaultTrace(link_faults=(LinkFault((0, 1), 0.0),))
        with pytest.raises(SimulationError, match="failed links"):
            simulator.run(
                tau_in=40.0, invocations=12, warmup=4, fault_trace=trace
            )

    def test_adaptive_router_survives_permanent_fault(self, cube3, chain_wr):
        timing, allocation = chain_wr
        simulator = AdaptiveWormholeSimulator(timing, cube3, allocation)
        trace = FaultTrace(link_faults=(LinkFault((0, 1), 0.0),))
        result = simulator.run(
            tau_in=40.0, invocations=12, warmup=4, fault_trace=trace
        )
        assert len(result.completion_times) == 12

    def test_identical_trace_identical_outcomes(self, cube3, chain_wr):
        timing, allocation = chain_wr
        trace = FaultTrace(
            link_faults=(LinkFault((0, 1), 0.0, duration=35.0),)
        )
        a = WormholeSimulator(timing, cube3, allocation).run(
            tau_in=40.0, invocations=12, warmup=4, fault_trace=trace
        )
        b = WormholeSimulator(timing, cube3, allocation).run(
            tau_in=40.0, invocations=12, warmup=4, fault_trace=trace
        )
        assert a.completion_times == b.completion_times
