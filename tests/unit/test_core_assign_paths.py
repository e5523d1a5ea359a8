"""Unit tests for the AssignPaths heuristic and the LSD->MSD baseline."""

import pytest

from repro.core.assign_paths import assign_paths, lsd_assignment
from repro.core.compiler import (
    CompilerConfig,
    compile_schedule,
    routed_and_local_messages,
)
from repro.core.timebounds import compute_time_bounds
from repro.core.utilization import CandidateFrame, utilization_report
from repro.errors import UtilizationExceededError
from repro.experiments import standard_setup
from repro.tfg import TFGTiming
from repro.tfg.graph import build_tfg
from repro.topology import Torus, lsd_to_msd_route


def hotspot_case(cube3):
    """Four messages whose LSD->MSD routes pile onto the same links but
    which have fully disjoint alternatives."""
    tfg = build_tfg(
        "hot",
        [(f"s{i}", 400) for i in range(4)] + [(f"d{i}", 400) for i in range(4)],
        [(f"m{i}", f"s{i}", f"d{i}", 1280) for i in range(4)],
    )
    timing = TFGTiming(tfg, 128.0, speeds=40.0)
    bounds = compute_time_bounds(timing, tau_in=100.0)
    # All four messages 0 -> 7 equivalents: distinct (src, dst) node pairs
    # at distance 2, every pair of which shares LSD->MSD prefixes.
    endpoints = {"m0": (0, 3), "m1": (0, 5), "m2": (1, 7), "m3": (0, 6)}
    return bounds, endpoints


class TestLsdAssignment:
    def test_matches_routing_function(self, cube3):
        bounds, endpoints = hotspot_case(cube3)
        assignment = lsd_assignment(cube3, endpoints)
        for name, (src, dst) in endpoints.items():
            assert list(assignment.path(name)) == lsd_to_msd_route(
                cube3, src, dst
            )


class TestAssignPaths:
    def test_improves_on_lsd(self, cube3):
        bounds, endpoints = hotspot_case(cube3)
        baseline = utilization_report(bounds, lsd_assignment(cube3, endpoints))
        result = assign_paths(bounds, cube3, endpoints, seed=0)
        assert result.report.peak <= baseline.peak

    def test_result_is_valid_assignment(self, cube3):
        bounds, endpoints = hotspot_case(cube3)
        result = assign_paths(bounds, cube3, endpoints, seed=1)
        for name, (src, dst) in endpoints.items():
            path = result.assignment.path(name)
            assert path[0] == src and path[-1] == dst
            assert len(path) - 1 == cube3.distance(src, dst)

    def test_reproducible_per_seed(self, cube3):
        bounds, endpoints = hotspot_case(cube3)
        a = assign_paths(bounds, cube3, endpoints, seed=5)
        b = assign_paths(bounds, cube3, endpoints, seed=5)
        assert a.assignment.as_dict() == b.assignment.as_dict()
        assert a.report.peak == b.report.peak

    def test_report_matches_assignment(self, cube3):
        bounds, endpoints = hotspot_case(cube3)
        result = assign_paths(bounds, cube3, endpoints, seed=2)
        fresh = utilization_report(bounds, result.assignment)
        assert fresh.peak == pytest.approx(result.report.peak)

    def test_zero_restarts_still_returns(self, cube3):
        bounds, endpoints = hotspot_case(cube3)
        result = assign_paths(bounds, cube3, endpoints, seed=0, max_restarts=0)
        assert result.restarts == 0
        assert result.report.peak > 0

    def test_single_message_trivial(self, cube3):
        tfg = build_tfg(
            "one", [("a", 400), ("b", 400)], [("m", "a", "b", 640)]
        )
        timing = TFGTiming(tfg, 128.0, speeds=40.0)
        bounds = compute_time_bounds(timing, tau_in=50.0)
        result = assign_paths(bounds, cube3, {"m": (0, 7)}, seed=0)
        assert result.report.peak == pytest.approx(5.0 / 10.0)

    def test_paper_figure5_shape(self, dvb_setup_64):
        """Fig. 5: AssignPaths is at least as low as LSD->MSD at every
        load, on the paper's own workload and topology."""
        setup = dvb_setup_64
        routed, _ = routed_and_local_messages(setup.timing, setup.allocation)
        endpoints = {
            name: (
                setup.allocation[setup.tfg.message(name).src],
                setup.allocation[setup.tfg.message(name).dst],
            )
            for name in routed
        }
        for load in (0.2, 0.6, 1.0):
            bounds = compute_time_bounds(
                setup.timing, setup.tau_in_for_load(load), routed
            )
            baseline = utilization_report(
                bounds, lsd_assignment(setup.topology, endpoints)
            )
            heuristic = assign_paths(
                bounds, setup.topology, endpoints, seed=0,
                max_paths=24, max_restarts=1,
            )
            assert heuristic.report.peak <= baseline.peak + 1e-9


class CountingTorus(Torus):
    """A torus that records every candidate-pool enumeration."""

    def __init__(self, radices):
        super().__init__(radices)
        self.pool_calls = []

    def minimal_path_pool(self, src, dst, max_paths=None):
        self.pool_calls.append((src, dst))
        return super().minimal_path_pool(src, dst, max_paths)


class TestCandidateFramePerCompile:
    def test_three_attempts_enumerate_each_pool_once(self, dvb5):
        """8x8 torus, B=64, load 0.66 is U>1 under all three seeds: the
        candidate frame outlives the attempts, so each routed message's
        pool is enumerated once per compile, not once per attempt."""
        torus = CountingTorus((8, 8))
        setup = standard_setup(dvb5, torus, bandwidth=64.0)
        routed, _ = routed_and_local_messages(setup.timing, setup.allocation)
        torus.pool_calls.clear()
        with pytest.raises(UtilizationExceededError):
            compile_schedule(
                setup.timing, torus, setup.allocation,
                setup.tau_in_for_load(0.66), CompilerConfig(retries=2),
            )
        assert len(torus.pool_calls) == len(routed)
        assert len(set(torus.pool_calls)) > 1

    def test_a_later_compile_on_the_topology_enumerates_nothing(self, dvb5):
        """The tables belong to the topology object: a second compile on
        it enumerates no pool and returns the same schedule."""
        torus = CountingTorus((8, 8))
        setup = standard_setup(dvb5, torus, bandwidth=128.0)
        args = (setup.timing, torus, setup.allocation,
                setup.tau_in_for_load(0.3), CompilerConfig())
        first = compile_schedule(*args)
        enumerated = len(torus.pool_calls)
        assert enumerated > 0
        second = compile_schedule(*args)
        assert len(torus.pool_calls) == enumerated
        assert second.schedule.slots == first.schedule.slots
        assert second.schedule.assignment == first.schedule.assignment

    def test_handed_frame_gives_the_same_result(self, cube3):
        bounds, endpoints = hotspot_case(cube3)
        frame = CandidateFrame(bounds, cube3, endpoints, 48)
        for seed in range(3):  # one frame serves every attempt's seed
            alone = assign_paths(bounds, cube3, endpoints, seed=seed)
            framed = assign_paths(
                bounds, cube3, endpoints, seed=seed, frame=frame
            )
            assert framed.assignment.as_dict() == alone.assignment.as_dict()
            assert framed.report == alone.report
            assert framed.inner_iterations == alone.inner_iterations
            assert framed.restarts == alone.restarts
