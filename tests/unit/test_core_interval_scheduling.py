"""Unit tests for interval scheduling over link-feasible sets (Section 5.3)."""

import random

import numpy as np
import pytest

from repro.core.assignment import PathAssignment
from repro.core.interval_allocation import IntervalAllocation
from repro.core.interval_scheduling import (
    conflict_graph,
    max_weight_independent_set,
    schedule_interval,
    schedule_intervals,
)
from repro.errors import IntervalSchedulingError
from repro.solvers import (
    BACKEND_NAMES,
    LP_TOL,
    available_backends,
    get_backend,
)
from repro.solvers.base import LPProblemBuilder
from repro.topology import binary_hypercube
from tests.conftest import pins


def assignment_with_paths(cube3, paths):
    endpoints = {name: (path[0], path[-1]) for name, path in paths.items()}
    return PathAssignment(cube3, endpoints, {n: list(p) for n, p in paths.items()})


@pytest.fixture()
def three_messages(cube3):
    """m0 conflicts with m1 (link (1,3)); m2 is independent of both."""
    return assignment_with_paths(
        cube3,
        {"m0": [0, 1, 3], "m1": [1, 3], "m2": [4, 5]},
    )


class TestConflictGraph:
    def test_edges_follow_shared_links(self, three_messages):
        adjacency = conflict_graph(three_messages, ["m0", "m1", "m2"])
        assert adjacency["m0"] == {"m1"}
        assert adjacency["m1"] == {"m0"}
        assert adjacency["m2"] == set()


class TestMaxWeightIndependentSet:
    def test_picks_heaviest_combination(self):
        adjacency = {"a": {"b"}, "b": {"a", "c"}, "c": {"b"}}
        weights = {"a": 2.0, "b": 3.0, "c": 2.0}
        chosen, weight = max_weight_independent_set(adjacency, weights)
        assert chosen == {"a", "c"}
        assert weight == 4.0

    def test_ignores_nonpositive_weights(self):
        adjacency = {"a": set(), "b": set()}
        weights = {"a": 1.0, "b": -1.0}
        chosen, weight = max_weight_independent_set(adjacency, weights)
        assert chosen == {"a"}
        assert weight == 1.0

    def test_empty(self):
        chosen, weight = max_weight_independent_set({}, {})
        assert chosen == frozenset()
        assert weight == 0.0

    def test_triangle(self):
        adjacency = {
            "a": {"b", "c"}, "b": {"a", "c"}, "c": {"a", "b"},
        }
        weights = {"a": 1.0, "b": 2.0, "c": 1.5}
        chosen, weight = max_weight_independent_set(adjacency, weights)
        assert chosen == {"b"}
        assert weight == 2.0


class TestScheduleInterval:
    def test_parallelizes_independent_messages(self, three_messages):
        demands = {"m0": 4.0, "m2": 4.0}
        schedule = schedule_interval(three_messages, 0, demands, 10.0)
        # Disjoint links: both can run in one slot of 4us.
        assert schedule.total_time == pytest.approx(4.0)
        assert schedule.message_time("m0") == pytest.approx(4.0)
        assert schedule.message_time("m2") == pytest.approx(4.0)

    def test_serializes_conflicting_messages(self, three_messages):
        demands = {"m0": 4.0, "m1": 5.0}
        schedule = schedule_interval(three_messages, 0, demands, 10.0)
        assert schedule.total_time == pytest.approx(9.0)
        for slot in schedule.slots:
            assert not {"m0", "m1"} <= slot.messages

    def test_mixed_case_optimum(self, three_messages):
        demands = {"m0": 4.0, "m1": 5.0, "m2": 3.0}
        schedule = schedule_interval(three_messages, 0, demands, 10.0)
        # m2 rides along with either m0 or m1: makespan = 9, not 12.
        assert schedule.total_time == pytest.approx(9.0)

    def test_exact_fit(self, three_messages):
        demands = {"m0": 5.0, "m1": 5.0}
        schedule = schedule_interval(three_messages, 0, demands, 10.0)
        assert schedule.total_time == pytest.approx(10.0)

    def test_overflow_raises(self, three_messages):
        demands = {"m0": 6.0, "m1": 6.0}
        with pytest.raises(IntervalSchedulingError) as info:
            schedule_interval(three_messages, 3, demands, 10.0)
        assert info.value.interval_index == 3
        assert info.value.required == pytest.approx(12.0)
        assert info.value.available == 10.0

    def test_empty_interval(self, three_messages):
        schedule = schedule_interval(three_messages, 0, {}, 10.0)
        assert schedule.slots == ()
        assert schedule.total_time == 0.0

    def test_overshoot_inside_tolerance_band_is_rescaled(
        self, three_messages
    ):
        # A packing that exceeds the interval by less than the shared
        # LP tolerance is solver rounding: the slots are rescaled to fit
        # exactly instead of raising.
        demands = {"m0": 10.0 * (1.0 + 0.5 * LP_TOL)}
        schedule = schedule_interval(three_messages, 0, demands, 10.0)
        assert schedule.total_time == pytest.approx(10.0, abs=1e-12)
        assert schedule.total_time <= 10.0

    def test_overshoot_beyond_tolerance_band_raises(self, three_messages):
        demands = {"m0": 10.0 * (1.0 + 10.0 * LP_TOL)}
        with pytest.raises(IntervalSchedulingError):
            schedule_interval(three_messages, 0, demands, 10.0)

    def test_demand_exactly_covered_per_message(self, three_messages):
        demands = {"m0": 2.5, "m1": 7.0, "m2": 1.0}
        schedule = schedule_interval(three_messages, 0, demands, 10.0)
        for name, demand in demands.items():
            assert schedule.message_time(name) == pytest.approx(demand)

    def test_column_generation_beats_singletons(self, cube3):
        # Three mutually-independent messages: singleton-only packing would
        # take 3 slots of 5us (15us); the optimum packs them together (5us).
        assignment = assignment_with_paths(
            cube3, {"a": [0, 1], "b": [2, 3], "c": [4, 5]}
        )
        schedule = schedule_interval(
            assignment, 0, {"a": 5.0, "b": 5.0, "c": 5.0}, 6.0
        )
        assert schedule.total_time == pytest.approx(5.0)
        assert any(len(slot.messages) == 3 for slot in schedule.slots)


# -- the closed-form singleton round -------------------------------------------

USABLE_BACKENDS = [
    name for name in BACKEND_NAMES
    if name == "auto" or name in available_backends()
]


def master_problem(p, columns):
    """``min 1'y  s.t.  A y = p, y >= 0`` for member-index columns."""
    builder = LPProblemBuilder(len(columns))
    builder.set_objective_vector(np.ones(len(columns)))
    rows = [i for members in columns for i in members]
    cols = [j for j, members in enumerate(columns) for _ in members]
    builder.add_eq_rows(
        p, rows=np.array(rows), cols=np.array(cols), values=np.ones(len(rows))
    )
    return builder.build()


def seeded_demands(n, seed):
    """``n`` demands log-uniform over ``[2 * LP_TOL, 1e9]``."""
    rng = random.Random(f"demands:{n}:{seed}")
    low, high = np.log10(2 * LP_TOL), 9.0
    return np.array([10.0 ** rng.uniform(low, high) for _ in range(n)])


@pytest.mark.parametrize("backend_name", USABLE_BACKENDS)
class TestIdentityMasterIsClosedForm:
    """What ``_PackingState.__init__`` assumes: the singleton master has
    the solution ``y = p`` with duals exactly 1 — bit for bit."""

    def test_alone(self, backend_name):
        backend = get_backend(backend_name)
        for n in range(1, 17):
            for seed in range(6):
                p = seeded_demands(n, seed)
                solution = backend.solve(
                    master_problem(p, [[i] for i in range(n)])
                )
                assert solution.success
                assert np.array_equal(solution.x, p)
                assert np.array_equal(solution.dual_eq, np.ones(n))

    def test_stitched_between_other_blocks(self, backend_name):
        backend = get_backend(backend_name)
        for n in range(1, 17):
            p = seeded_demands(n, 99)
            other = master_problem(
                seeded_demands(3, n), [[0], [1], [2], [0, 2]]
            )
            solutions = backend.solve_batch(
                [other, master_problem(p, [[i] for i in range(n)]), other]
            )
            assert np.array_equal(solutions[1].x, p)
            assert np.array_equal(solutions[1].dual_eq, np.ones(n))


def random_packing_case(seed):
    """Random minimal-path messages on the 4-cube with 1-3 intervals of
    demands: a seeded random conflict graph per interval."""
    rng = random.Random(f"packing:{seed}")
    cube = binary_hypercube(4)
    paths = {}
    for i in range(rng.randint(1, 9)):
        src, dst = rng.sample(range(cube.num_nodes), 2)
        paths[f"m{i}"] = rng.choice(cube.minimal_path_pool(src, dst, 8))
    endpoints = {name: (path[0], path[-1]) for name, path in paths.items()}
    assignment = PathAssignment(cube, endpoints, paths)
    cells = {
        (name, k): rng.uniform(0.5, 20.0)
        for k in range(rng.randint(1, 3))
        for name in paths
        if rng.random() < 0.8
    }
    return assignment, IntervalAllocation(tuple(paths), cells, 1.0)


def reference_packings(assignment, allocation, backend, batch):
    """The pre-closed-form column generation: the singleton round goes to
    the backend like every other.  ``interval -> [(set, duration)]``."""
    states = {}
    for k in allocation.intervals_used():
        demands = allocation.per_interval(k)
        messages = sorted(n for n, p in demands.items() if p > LP_TOL)
        states[k] = {
            "messages": messages,
            "adjacency": conflict_graph(assignment, messages),
            "p": np.array([demands[m] for m in messages]),
            "columns": [frozenset([m]) for m in messages],
            "done": not messages,
        }

    def problem(state):
        index = {name: i for i, name in enumerate(state["messages"])}
        return master_problem(
            state["p"],
            [[index[m] for m in column] for column in state["columns"]],
        )

    def absorb(state, solution):
        assert solution.success
        state["x"], state["solved"] = solution.x, len(state["columns"])
        weights = dict(zip(state["messages"], map(float, solution.dual_eq)))
        candidate, weight = max_weight_independent_set(
            state["adjacency"], weights
        )
        if weight <= 1.0 + LP_TOL or candidate in state["columns"]:
            state["done"] = True
        else:
            state["columns"].append(candidate)

    active = [s for s in states.values() if not s["done"]]
    if not batch or len(active) <= 1:
        for state in active:
            while not state["done"]:
                absorb(state, backend.solve(problem(state)))
    else:
        while pending := [s for s in active if not s["done"]]:
            solutions = backend.solve_batch([problem(s) for s in pending])
            for state, solution in zip(pending, solutions):
                absorb(state, solution)
    return {
        k: [
            (state["columns"][j], float(state["x"][j]))
            for j in range(state["solved"])
            if state["x"][j] > LP_TOL
        ] if state["messages"] else []
        for k, state in states.items()
    }


def packed(schedule):
    return [(slot.messages, slot.duration) for slot in schedule.slots]


class TestClosedFormRoundChangesNothing:
    def test_random_conflict_graphs_match_solved_singleton_round(self):
        backend = get_backend()
        lengths = [1e6] * 3
        multi_column = 0
        for seed in range(200):
            assignment, allocation = random_packing_case(seed)
            for batch in (False, True):
                expected = reference_packings(
                    assignment, allocation, backend, batch
                )
                got = schedule_intervals(
                    assignment, allocation, lengths, backend=backend,
                    batch=batch,
                )
                assert {
                    k: packed(schedule) for k, schedule in got.items()
                } == expected, seed
                if batch:
                    continue
                # Sequential solving is per interval, so the same
                # reference serves the single-interval entry point.
                for k, slots in expected.items():
                    single = schedule_interval(
                        assignment, k, allocation.per_interval(k), 1e6,
                        backend=backend,
                    )
                    assert packed(single) == slots, seed
                    multi_column += any(len(column) > 1 for column, _ in slots)
        # The corpus is not all trivial packings (335 of 400 intervals).
        assert multi_column >= 200


class _NoSolveBackend:
    """Fails the test if column generation reaches the solver."""

    def solve(self, problem, warm_start=None):
        raise AssertionError("a packing settled in closed form was solved")

    solve_batch = solve


class TestDoneAtConstruction:
    def test_complete_conflict_graph_needs_no_solver(self, three_messages):
        # m0 and m1 share link (1, 3): the heaviest independent set under
        # unit duals weighs 1, so the singleton packing is the optimum.
        demands = {"m0": 4.0, "m1": 5.0}
        schedule = schedule_interval(
            three_messages, 2, demands, 10.0, backend=_NoSolveBackend()
        )
        assert schedule.interval == 2
        assert {(s.messages, s.duration) for s in schedule.slots} == {
            (frozenset(["m0"]), 4.0), (frozenset(["m1"]), 5.0),
        }

    def test_batched_entry_point_skips_the_backend_too(self, three_messages):
        allocation = IntervalAllocation(
            ("m0", "m1"),
            {("m0", 0): 4.0, ("m1", 0): 5.0, ("m1", 1): 2.0},
            1.0,
        )
        schedules = schedule_intervals(
            three_messages, allocation, [10.0, 10.0],
            backend=_NoSolveBackend(),
        )
        assert schedules[0].total_time == 9.0
        assert schedules[1].slots[0].messages == frozenset(["m1"])

    def test_overshoot_still_raises(self, three_messages):
        with pytest.raises(IntervalSchedulingError) as info:
            schedule_interval(
                three_messages, 1, {"m0": 6.0, "m1": 6.0}, 10.0,
                backend=_NoSolveBackend(),
            )
        assert info.value.required == 12.0
        assert info.value.available == 10.0


class TestOneMessagePackings:
    """A one-message packing is its demand through the fit-or-rescale
    rule."""

    LENGTH = 7.3

    def test_demand_equal_to_the_length(self, three_messages):
        schedule = schedule_interval(
            three_messages, 4, {"m0": self.LENGTH, "m1": 0.0}, self.LENGTH,
            backend=_NoSolveBackend(),
        )
        assert packed(schedule) == [(frozenset(["m0"]), 7.3)]

    @pytest.mark.parametrize(
        "demand", [7.300000364999999, 7.30000073], ids=["inside", "edge"]
    )
    def test_demand_inside_the_band_is_rescaled_to_the_length(
        self, three_messages, demand
    ):
        assert demand > self.LENGTH
        schedule = schedule_interval(
            three_messages, 2, {"m2": demand}, self.LENGTH,
            backend=_NoSolveBackend(),
        )
        ((members, duration),) = packed(schedule)
        assert members == frozenset(["m2"])
        assert duration.hex() == "0x1.d333333333333p+2" == self.LENGTH.hex()

    def test_demand_beyond_the_band_raises(self, three_messages):
        with pytest.raises(IntervalSchedulingError) as info:
            schedule_interval(
                three_messages, 1, {"m1": 7.300000730000001}, self.LENGTH,
                backend=_NoSolveBackend(),
            )
        assert info.value.interval_index == 1
        assert info.value.required == 7.300000730000001
        assert info.value.available == 7.3

    def test_mixed_intervals_keep_their_pinned_slots(self, monkeypatch):
        """One-message, multi-message and rescaled intervals in one call
        pack as tests/data/pins.json holds them."""
        from repro.core import interval_scheduling

        graphs = []
        real = interval_scheduling.conflict_graph
        monkeypatch.setattr(
            interval_scheduling, "conflict_graph",
            lambda assignment, messages: graphs.append(messages)
            or real(assignment, messages),
        )
        assert pins().produce("intervals.mixed_packings") == pins().pinned(
            "intervals.mixed_packings"
        )
        # Only the two multi-message intervals built a conflict graph.
        assert graphs == [["m0", "m2"], ["m0", "m1", "m2"]]
