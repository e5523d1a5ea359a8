"""Unit tests for AssignPaths' peak-repositioning behaviour.

The Fig. 4 heuristic's subtlest branch: when no reroute can *reduce* the
peak, a reroute that moves the same peak value to a different link/spot
is taken so the search leaves the current neighbourhood.  These tests
force that regime with three identical no-slack messages over two lanes
(any assignment puts >= 2 on one lane, so the peak value is pinned at
2.0 and only its position can change) and check the heuristic terminates
and returns the pinned optimum.
"""

import pytest

from repro.core.assign_paths import assign_paths
from repro.core.timebounds import compute_time_bounds
from repro.tfg import TFGTiming
from repro.tfg.graph import build_tfg


@pytest.fixture()
def pinned_peak(cube3):
    """Three no-slack same-window messages, all node 0 -> node 3.

    The 3-cube offers exactly two minimal lanes (via node 1 and node 2);
    by pigeonhole some lane always carries two full-window messages.
    """
    tfg = build_tfg(
        "pinned",
        [(f"s{i}", 400) for i in range(3)] + [(f"d{i}", 400) for i in range(3)],
        [(f"m{i}", f"s{i}", f"d{i}", 1280) for i in range(3)],
    )
    timing = TFGTiming(tfg, 128.0, speeds=40.0)
    bounds = compute_time_bounds(timing, tau_in=100.0)
    endpoints = {f"m{i}": (0, 3) for i in range(3)}
    return bounds, endpoints


class TestRepositioning:
    def test_terminates_at_pinned_optimum(self, cube3, pinned_peak):
        bounds, endpoints = pinned_peak
        result = assign_paths(bounds, cube3, endpoints, seed=0)
        assert result.report.peak == pytest.approx(2.0)
        assert result.inner_iterations >= 1

    def test_many_seeds_agree_on_value(self, cube3, pinned_peak):
        bounds, endpoints = pinned_peak
        peaks = {
            round(assign_paths(bounds, cube3, endpoints, seed=s).report.peak, 9)
            for s in range(4)
        }
        assert peaks == {2.0}

    def test_two_messages_resolve_without_repositioning(self, cube3):
        """With only two messages the peak is reducible: the heuristic
        must find the disjoint-lanes optimum where each lane's single
        no-slack message gives U = 1.0."""
        tfg = build_tfg(
            "pair",
            [("s0", 400), ("s1", 400), ("d0", 400), ("d1", 400)],
            [("m0", "s0", "d0", 1280), ("m1", "s1", "d1", 1280)],
        )
        timing = TFGTiming(tfg, 128.0, speeds=40.0)
        bounds = compute_time_bounds(timing, tau_in=100.0)
        endpoints = {"m0": (0, 3), "m1": (0, 3)}
        result = assign_paths(bounds, cube3, endpoints, seed=0)
        assert result.report.peak == pytest.approx(1.0)
        lanes = {result.assignment.path("m0"), result.assignment.path("m1")}
        assert len(lanes) == 2  # one message per lane
