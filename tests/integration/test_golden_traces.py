"""Golden-trace tests: recorded traces must match first-principles truth.

Two anchors:

1. **SR**: a traced replay's per-link occupancy spans are *exactly* the
   compiled schedule's :meth:`absolute_slots` windows on the paper's
   6-cube DVB example — the executor does what the compiler said, and
   the tracer observed precisely that.
2. **WR**: a traced run of the Section-3 witness (``test_oi_claim``)
   shows the claimed mechanism on link (1, 3): M1 and M2 grants
   alternate, FCFS blocking spans exist, and the recorded ``completion``
   instants are the run's completion series.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.compiler import compile_schedule
from repro.core.executor import ScheduledRoutingExecutor
from repro.faults.models import FaultTrace, LinkFault
from repro.results import RunConfig
from repro.tfg import TFGTiming
from repro.tfg.graph import build_tfg
from repro.trace import TraceRecorder
from repro.wormhole import WormholeSimulator

INVOCATIONS = 8
WARMUP = 4


@pytest.fixture()
def claim_case(cube3):
    tfg = build_tfg(
        "claim3",
        [("t0", 400), ("t1", 400), ("t2", 400)],
        [("M1", "t0", "t1", 1280), ("M2", "t1", "t2", 1280)],
    )
    timing = TFGTiming(tfg, 128.0, speeds=40.0)
    allocation = {"t0": 0, "t1": 3, "t2": 1}
    return timing, cube3, allocation


class TestScheduledRoutingGoldenTrace:
    @pytest.fixture(scope="class")
    def traced_sr(self, dvb_setup_128):
        setup = dvb_setup_128
        routing = compile_schedule(
            setup.timing,
            setup.topology,
            setup.allocation,
            setup.tau_in_for_load(0.5),
        )
        executor = ScheduledRoutingExecutor(
            routing, setup.timing, setup.topology, setup.allocation
        )
        tracer = TraceRecorder(categories=("link", "slot", "run"))
        result = executor.run(
            config=RunConfig(
                invocations=INVOCATIONS, warmup=WARMUP, tracer=tracer
            )
        )
        return executor, tracer, result

    def test_result_carries_the_trace(self, traced_sr):
        _, tracer, result = traced_sr
        assert result.trace is tracer
        assert result.technique == "scheduled"

    def test_link_occupancy_matches_absolute_slots(self, traced_sr):
        """Every traced occupancy window of every message equals the
        compiled absolute_slots windows — no more, no fewer, no shift."""
        executor, tracer, _ = traced_sr
        occupancy = tracer.occupancy()
        checked = 0
        for name, slots in executor.routing.schedule.slots.items():
            expected = sorted(
                window
                for j in range(INVOCATIONS)
                for window in executor.absolute_slots(name, j)
            )
            path_links = slots[0].links
            for link in path_links:
                observed = sorted(
                    (start, end)
                    for start, end, owner in occupancy[str(link)]
                    if owner == name
                )
                assert len(observed) == len(expected)
                for (o_start, o_end), (e_start, e_end) in zip(
                    observed, expected
                ):
                    assert o_start == pytest.approx(e_start, abs=1e-9)
                    assert o_end == pytest.approx(e_end, abs=1e-9)
                checked += 1
        assert checked > 0

    def test_no_blocking_in_a_scheduled_replay(self, traced_sr):
        """Contention-freedom, observed: zero FCFS blocked spans."""
        _, tracer, _ = traced_sr
        assert tracer.spans("link", name="blocked") == []

    def test_slot_spans_cover_every_scheduled_occurrence(self, traced_sr):
        executor, tracer, _ = traced_sr
        expected = sum(
            len(executor.absolute_slots(name, j))
            for name in executor.routing.schedule.slots
            for j in range(INVOCATIONS)
        )
        assert len(tracer.spans("slot")) == expected

    def test_completion_instants_match_result(self, traced_sr):
        _, tracer, result = traced_sr
        recorded = [e.time for e in tracer.instants("run", name="completion")]
        assert recorded == pytest.approx(list(result.completion_times))

    def test_whole_trace_is_the_first_principles_multiset(self, traced_sr):
        """Everything a replay records outside the kernel's own ``sim``
        category, as a multiset: one ``slot`` span per scheduled window,
        one ``link`` occupancy span per window and path link, one ``task``
        span per task instance, one ``run`` completion per invocation, the
        injected outage's two ``fault`` edges — and nothing else, however
        the replay loop is organised."""
        executor, _, result = traced_sr
        used = {
            link
            for slots in executor.routing.schedule.slots.values()
            for link in slots[0].links
        }
        spare = next(
            link for link in executor.topology.links if link not in used
        )
        tracer = TraceRecorder(
            categories=("slot", "link", "task", "run", "fault")
        )
        executor.run(
            config=RunConfig(
                invocations=INVOCATIONS,
                warmup=WARMUP,
                tracer=tracer,
                fault_trace=FaultTrace(
                    link_faults=(LinkFault(spare, 100.0, duration=50.0),)
                ),
            )
        )

        def key(category, name, start, end, track, **args):
            return (
                category, name, round(start, 9), round(end - start, 9),
                track, tuple(sorted(args.items())),
            )

        expected = Counter(
            [
                key("fault", "down", 100.0, 100.0, str(spare), permanent=False),
                key("fault", "up", 150.0, 150.0, str(spare)),
            ]
        )
        tau_in = executor.tau_in
        for name, slots in executor.routing.schedule.slots.items():
            for j in range(INVOCATIONS):
                for start, end in executor.absolute_slots(name, j):
                    expected[key(
                        "slot", name, start, end, f"msg {name}", invocation=j
                    )] += 1
                    for link in slots[0].links:
                        expected[key(
                            "link", "occupy", start, end, str(link), owner=name
                        )] += 1
        for task, (start, finish) in executor.timing.asap_schedule().items():
            for j in range(INVOCATIONS):
                expected[key(
                    "task", task, j * tau_in + start, j * tau_in + finish,
                    f"node{executor.allocation[task]}", invocation=j,
                )] += 1
        for j, done in enumerate(result.completion_times):
            expected[key("run", "completion", done, done, "outputs",
                         invocation=j)] += 1
        recorded = Counter(
            key(e.category, e.name, e.time, e.end, e.track, **e.args)
            for e in tracer.events
        )
        assert recorded == expected


class TestWormholeGoldenTrace:
    @pytest.fixture()
    def traced_wr(self, claim_case):
        timing, topo, allocation = claim_case
        simulator = WormholeSimulator(timing, topo, allocation)
        tracer = TraceRecorder(categories=("link", "flight", "run"))
        result = simulator.run(
            12.0,
            config=RunConfig(invocations=40, warmup=8, tracer=tracer),
        )
        return tracer, result

    def test_oi_reproduced_under_tracing(self, traced_wr):
        _, result = traced_wr
        assert result.has_oi()
        assert result.trace is traced_wr[0]

    def test_completion_instants_match_result(self, traced_wr):
        tracer, result = traced_wr
        recorded = [e.time for e in tracer.instants("run", name="completion")]
        assert recorded == pytest.approx(list(result.completion_times))

    def test_shared_link_grants_alternate_between_messages(self, traced_wr):
        """The Section-3 mechanism, as recorded: on the shared link
        (1, 3), M1 of invocation j+1 and M2 of invocation j interleave —
        consecutive grants never come from the same message twice once
        the pipeline fills."""
        tracer, _ = traced_wr
        windows = tracer.occupancy()["(1, 3)"]
        owners = [owner[0] for _, _, owner in windows]
        assert {"M1", "M2"} <= set(owners)
        steady = owners[4:-4]
        assert all(a != b for a, b in zip(steady, steady[1:]))

    def test_fcfs_blocking_observed_on_shared_link(self, traced_wr):
        """OI's cause is FCFS waiting: the trace must contain blocked
        spans on the contended link, and none can overlap an occupancy
        span of the same owner."""
        tracer, _ = traced_wr
        blocked = tracer.spans("link", track="(1, 3)", name="blocked")
        assert blocked, "expected FCFS waits on the shared link"
        for wait in blocked:
            grants = [
                (start, end)
                for start, end, owner in tracer.occupancy()["(1, 3)"]
                if owner == wait.args["owner"]
            ]
            # The grant the wait resolved into starts exactly at its end.
            assert any(
                start == pytest.approx(wait.end) for start, _ in grants
            )
