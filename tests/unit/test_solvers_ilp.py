"""The integer reference: ``solve_integer`` and the AssignPaths gap."""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("scipy")

from repro.core.compiler import CompilerConfig, compile_schedule
from repro.experiments import standard_setup
from repro.solvers import get_backend
from repro.solvers.base import LPProblem, LPProblemBuilder
from repro.solvers.ilp_backend import assignment_gap, solve_integer
from repro.tfg.graph import build_tfg
from repro.topology import binary_hypercube

CONFIG = CompilerConfig(seed=0, max_paths=16, max_restarts=2, retries=1)


def small_problem():
    """max x + y  s.t.  2x + y <= 3, x + 2y <= 3  (LP opt 2.0 at (1,1))."""
    return LPProblem.from_dense(
        c=np.array([-1.0, -1.0]),
        a_ub=np.array([[2.0, 1.0], [1.0, 2.0]]),
        b_ub=np.array([3.0, 3.0]),
        bounds=[(0.0, None), (0.0, None)],
    )


class TestIlpBackend:
    def test_solve_integer_respects_integrality(self):
        # LP relaxation peaks at (1, 1) -> 2.0; all-integer is the same
        # here, so force a fractional-vs-integer split instead:
        # max x  s.t.  2x <= 3  gives x = 1.5 relaxed, x = 1 integer.
        builder = LPProblemBuilder(1)
        builder.set_objective([0], [-1.0])
        builder.add_ub_rows([3.0])
        builder.add_ub_entries([0], [0], [2.0])
        problem = builder.build()
        relaxed = get_backend("highs").solve(problem)
        assert relaxed.x[0] == pytest.approx(1.5)
        integer = solve_integer(problem, np.array([1]))
        assert integer.success
        assert integer.x[0] == pytest.approx(1.0)
        assert integer.objective == pytest.approx(-1.0)
        assert integer.dual_eq is None

    def test_solve_integer_agrees_at_an_integral_vertex(self):
        problem = small_problem()
        integer = solve_integer(problem, np.array([1, 1]))
        relaxed = get_backend("highs").solve(problem)
        assert integer.success and relaxed.success
        assert integer.objective == pytest.approx(relaxed.objective)
        np.testing.assert_allclose(integer.x, relaxed.x)


class TestAssignmentGap:
    def gap_for(self, setup, load=0.5, max_paths=16):
        routing = compile_schedule(
            setup.timing,
            setup.topology,
            setup.allocation,
            setup.tau_in_for_load(load),
            CONFIG,
        )
        endpoints = {
            name: (
                setup.allocation[message.src],
                setup.allocation[message.dst],
            )
            for name, message in (
                (m.name, m) for m in setup.timing.tfg.messages
            )
            if setup.allocation[message.src] != setup.allocation[message.dst]
        }
        return assignment_gap(
            routing.bounds,
            setup.topology,
            endpoints,
            routing.schedule.assignment,
            max_paths=max_paths,
        )

    def test_gap_is_nonnegative_and_optimal(self, cube3):
        tfg = build_tfg(
            "diamond",
            [("s", 400), ("m1", 400), ("m2", 400), ("t", 400)],
            [
                ("a", "s", "m1", 640),
                ("b", "s", "m2", 1280),
                ("c", "m1", "t", 640),
                ("d", "m2", "t", 1280),
            ],
        )
        setup = standard_setup(tfg, cube3, bandwidth=64.0)
        gap = self.gap_for(setup)
        assert gap.optimal
        assert gap.messages == 4
        assert gap.variables >= gap.messages
        # The ILP optimum lower-bounds any assignment from the pools.
        assert gap.optimal_peak <= gap.heuristic_peak + 1e-9
        assert gap.gap >= -1e-9

    def test_single_path_instance_has_zero_gap(self):
        # Two tasks, one message, on a 2-node "cube": both the heuristic
        # and the ILP have exactly one choice, so the gap is exactly 0.
        tfg = build_tfg(
            "pair", [("a", 400), ("b", 400)], [("m", "a", "b", 640)]
        )
        setup = standard_setup(tfg, binary_hypercube(1), bandwidth=64.0)
        gap = self.gap_for(setup)
        assert gap.optimal
        assert gap.gap == pytest.approx(0.0, abs=1e-9)
        assert gap.heuristic_peak == pytest.approx(gap.optimal_peak)
