"""Unit tests for the allocation <-> interval-scheduling feedback loop."""

import dataclasses

import pytest

from repro.core.assignment import PathAssignment
from repro.core.compiler import CompilerConfig, compile_schedule
from repro.core.interval_allocation import allocate_intervals
from repro.core.timebounds import compute_time_bounds
from repro.errors import (
    IntervalAllocationError,
    IntervalSchedulingError,
    SchedulingError,
)
from repro.experiments.setup import standard_setup
from repro.tfg import TFGTiming, dvb_tfg
from repro.tfg.graph import build_tfg
from repro.topology import make_topology


@pytest.fixture()
def shared_link_case(cube3):
    """Two slack messages sharing link (1,3), both active in one window."""
    tfg = build_tfg(
        "pair",
        [("s1", 400), ("s2", 400), ("d1", 400), ("d2", 400)],
        [("m1", "s1", "d1", 512), ("m2", "s2", "d2", 512)],
    )
    timing = TFGTiming(tfg, 128.0, speeds=40.0)
    bounds = compute_time_bounds(timing, tau_in=100.0)
    assignment = PathAssignment(
        cube3,
        {"m1": (0, 3), "m2": (1, 3)},
        {"m1": [0, 1, 3], "m2": [1, 3]},
    )
    return bounds, assignment


class TestIntervalCaps:
    def test_cap_is_honored(self, shared_link_case):
        bounds, assignment = shared_link_case
        # Both messages are active only in one interval; find it.
        k = bounds.active_intervals("m1")[0]
        total_demand = sum(
            bounds.bounds[m].duration for m in ("m1", "m2")
        )
        cap = total_demand - 1.0
        with pytest.raises(IntervalAllocationError):
            # The messages have no other interval to move to, so a cap
            # below their joint demand is infeasible — proving the cap
            # constraint is active.
            allocate_intervals(
                bounds, assignment, ("m1", "m2"),
                interval_caps={k: cap},
            )

    def test_slack_cap_changes_nothing(self, shared_link_case):
        bounds, assignment = shared_link_case
        k = bounds.active_intervals("m1")[0]
        generous = allocate_intervals(
            bounds, assignment, ("m1", "m2"),
            interval_caps={k: 1000.0},
        )
        plain = allocate_intervals(bounds, assignment, ("m1", "m2"))
        for name in ("m1", "m2"):
            assert sum(
                t for (m, _), t in generous.allocation.items() if m == name
            ) == pytest.approx(
                sum(t for (m, _), t in plain.allocation.items() if m == name)
            )

    def test_cap_on_inactive_interval_ignored(self, shared_link_case):
        bounds, assignment = shared_link_case
        inactive = [
            k for k in range(bounds.intervals.count)
            if k not in bounds.active_intervals("m1")
            and k not in bounds.active_intervals("m2")
        ]
        if not inactive:
            pytest.skip("no inactive interval in this decomposition")
        allocation = allocate_intervals(
            bounds, assignment, ("m1", "m2"),
            interval_caps={inactive[0]: 0.0},
        )
        assert allocation.load_factor <= 1.0 + 1e-6


class TestCompilerFeedback:
    def overload_case(self, cube3):
        """Six same-window messages from node 0 to node 3: their 24us of
        joint demand exceeds the 20us the two minimal lanes (via node 1
        and via node 2) can carry in one 10us window — genuinely
        unschedulable no matter how paths are assigned or demand is fed
        back between intervals."""
        tfg = build_tfg(
            "overload",
            [(f"s{i}", 400) for i in range(6)]
            + [(f"d{i}", 400) for i in range(6)],
            [(f"m{i}", f"s{i}", f"d{i}", 512) for i in range(6)],
        )
        timing = TFGTiming(tfg, 128.0, speeds=40.0)
        allocation = {}
        for i in range(6):
            allocation[f"s{i}"] = 0
            allocation[f"d{i}"] = 3
        return timing, allocation

    def test_genuinely_infeasible_case_still_fails(self, cube3):
        timing, allocation = self.overload_case(cube3)
        with pytest.raises(SchedulingError) as info:
            compile_schedule(timing, cube3, allocation, 100.0)
        assert info.value.stage in {
            "utilization", "interval-allocation", "interval-scheduling",
        }

    def test_feedback_rounds_zero_still_works_on_easy_cases(
        self, dvb_setup_128
    ):
        setup = dvb_setup_128
        routing = compile_schedule(
            setup.timing, setup.topology, setup.allocation,
            setup.tau_in_for_load(0.6),
            CompilerConfig(feedback_rounds=0),
        )
        assert routing.utilization.feasible

    def test_feedback_rounds_do_not_change_feasible_results(
        self, dvb_setup_128
    ):
        setup = dvb_setup_128
        tau_in = setup.tau_in_for_load(0.8)
        a = compile_schedule(
            setup.timing, setup.topology, setup.allocation, tau_in,
            CompilerConfig(feedback_rounds=0),
        )
        b = compile_schedule(
            setup.timing, setup.topology, setup.allocation, tau_in,
            CompilerConfig(feedback_rounds=3),
        )
        # Feedback only engages on failure; a clean compile is identical.
        assert a.paths == b.paths
        assert a.schedule.num_commands == b.schedule.num_commands
    def test_feedback_rescues_a_pinned_point(self):
        """The Fig. 3 arrow is load-bearing: DVB(5) on the 8x8 torus at
        B = 128 and load 0.7714 (a ``cache_replay`` point whose digest
        expected/seed0.json pins), under the ``matrix_cold`` settings,
        compiles on its first attempt only because a capped re-solve
        rescues an interval packing the first allocation overfills."""
        setup = standard_setup(dvb_tfg(5), make_topology("torus8x8"), 128.0)
        problem = (
            setup.timing, setup.topology, setup.allocation,
            setup.tau_in_for_load(0.7714285714),
        )
        config = CompilerConfig(
            seed=0, max_paths=48, max_restarts=4, retries=2
        )
        assert compile_schedule(*problem, config).attempts == 1
        with pytest.raises(IntervalSchedulingError):
            compile_schedule(
                *problem, dataclasses.replace(config, feedback_rounds=0)
            )
