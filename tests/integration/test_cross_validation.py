"""Cross-validation between independent implementations.

Several core computations have two implementations in this library; these
tests pit them against each other:

- the LP interval packer vs the greedy list scheduler,
- the executor's *observed* link busy time vs the schedule's *planned*
  per-frame occupancy,
- the static schedule validator vs the executor's walk of Ω into
  circuits (exercised throughout the suite; asserted here on a fresh
  compile).
"""

import pytest

from repro.core.compiler import compile_schedule
from repro.core.executor import ScheduledRoutingExecutor
from repro.core.interval_scheduling import (
    greedy_schedule_interval,
    schedule_interval,
)
from repro.tfg import TFGTiming
from repro.tfg.graph import build_tfg


class TestLpVsGreedy:
    def packing_case(self, cube3, demands):
        from repro.core.assignment import PathAssignment

        paths = {
            "a": [0, 1, 3],   # conflicts with b on (1,3)
            "b": [1, 3],
            "c": [4, 5],      # independent
            "d": [0, 2],      # conflicts with e on (0,2)? no - e below
            "e": [2, 6],      # shares node 2 but not link (0,2)
        }
        endpoints = {k: (v[0], v[-1]) for k, v in paths.items()}
        assignment = PathAssignment(cube3, endpoints, paths)
        lp = schedule_interval(assignment, 0, demands, 1e9)
        greedy = greedy_schedule_interval(assignment, 0, demands)
        return lp, greedy

    @pytest.mark.parametrize("demands", [
        {"a": 4.0, "b": 5.0},
        {"a": 4.0, "b": 5.0, "c": 3.0},
        {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0, "e": 1.0},
        {"a": 7.5, "b": 0.5, "c": 6.0, "d": 2.25, "e": 3.0},
    ])
    def test_lp_never_worse_than_greedy(self, cube3, demands):
        lp, greedy = self.packing_case(cube3, demands)
        assert lp.total_time <= greedy.total_time + 1e-6
        # Both cover every demand exactly.
        for name, demand in demands.items():
            assert lp.message_time(name) == pytest.approx(demand)
            assert greedy.message_time(name) == pytest.approx(demand)

    @pytest.mark.parametrize("demands", [
        {"a": 4.0, "b": 5.0, "c": 3.0},
        {"a": 7.5, "b": 0.5, "c": 6.0, "d": 2.25, "e": 3.0},
    ])
    def test_greedy_slots_are_link_feasible(self, cube3, demands):
        from repro.core.assignment import PathAssignment

        _, greedy = self.packing_case(cube3, demands)
        paths = {
            "a": [0, 1, 3], "b": [1, 3], "c": [4, 5], "d": [0, 2],
            "e": [2, 6],
        }
        endpoints = {k: (v[0], v[-1]) for k, v in paths.items()}
        assignment = PathAssignment(cube3, endpoints, paths)
        link_sets = {m: set(assignment.links(m)) for m in paths}
        for slot in greedy.slots:
            members = sorted(slot.messages)
            for i, first in enumerate(members):
                for second in members[i + 1:]:
                    assert not (link_sets[first] & link_sets[second])


class TestObservedVsPlanned:
    def test_executor_link_busy_matches_schedule(self, cube3):
        timing = TFGTiming(
            build_tfg(
                "net",
                [("s", 400), ("m1", 400), ("m2", 400), ("t", 400)],
                [
                    ("a", "s", "m1", 640),
                    ("b", "s", "m2", 1280),
                    ("c", "m1", "t", 640),
                    ("d", "m2", "t", 1280),
                ],
            ),
            128.0,
            speeds=40.0,
        )
        allocation = {"s": 0, "m1": 1, "m2": 2, "t": 7}
        routing = compile_schedule(timing, cube3, allocation, tau_in=40.0)
        executor = ScheduledRoutingExecutor(routing, timing, cube3, allocation)
        invocations = 12
        result = executor.run(invocations=invocations, warmup=2)

        planned: dict = {}
        for slot in routing.schedule.all_slots():
            for link in slot.links:
                planned[link] = planned.get(link, 0.0) + slot.duration

        observed = result.extra["link_busy"]
        assert set(observed) == set(planned)
        for link, per_frame in planned.items():
            assert observed[link] == pytest.approx(
                per_frame * invocations, rel=1e-9
            )

    def test_dvb_observed_vs_planned(self, dvb_setup_128):
        setup = dvb_setup_128
        routing = compile_schedule(
            setup.timing, setup.topology, setup.allocation,
            setup.tau_in_for_load(0.7),
        )
        result = ScheduledRoutingExecutor(
            routing, setup.timing, setup.topology, setup.allocation
        ).run(invocations=10, warmup=2)
        planned: dict = {}
        for slot in routing.schedule.all_slots():
            for link in slot.links:
                planned[link] = planned.get(link, 0.0) + slot.duration
        for link, busy in result.extra["link_busy"].items():
            assert busy == pytest.approx(planned[link] * 10, rel=1e-6)


class TestStaticVsHardwareReplay:
    def test_agreement_on_fresh_compile(self, dvb_setup_128):
        setup = dvb_setup_128
        routing = compile_schedule(
            setup.timing, setup.topology, setup.allocation,
            setup.tau_in_for_load(0.9),
        )
        routing.schedule.validate()  # static validator
        executor = ScheduledRoutingExecutor(
            routing, setup.timing, setup.topology, setup.allocation
        )
        assert executor.commands_placed == routing.schedule.num_commands
