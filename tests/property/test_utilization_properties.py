"""Property-based tests of utilisation bookkeeping under random reroutes."""

import random

from hypothesis import given, settings, strategies as st

from repro.core.assignment import PathAssignment
from repro.core.timebounds import compute_time_bounds
from repro.core.utilization import (
    CandidateFrame,
    UtilizationState,
    utilization_report,
)
from repro.tfg import TFGTiming, random_layered_tfg
from repro.topology import binary_hypercube
from repro.topology.paths import enumerate_minimal_paths

TOPOLOGY = binary_hypercube(4)


@st.composite
def reroute_scenario(draw):
    tfg = random_layered_tfg(
        seed=draw(st.integers(0, 2000)),
        layers=draw(st.integers(2, 3)),
        width=draw(st.integers(1, 3)),
        edge_probability=draw(st.floats(0.3, 1.0)),
        ops_range=(200.0, 800.0),
        size_range=(128.0, 1024.0),
    )
    tau_c = max(t.ops for t in tfg.tasks) / 20.0
    tau_m = max(m.size_bytes for m in tfg.messages) / 128.0
    timing = TFGTiming(tfg, 128.0, speeds=20.0,
                       message_window=max(tau_c, tau_m))
    tau_in = max(timing.tau_c * draw(st.floats(1.0, 3.0)),
                 timing.message_window)
    rng = random.Random(draw(st.integers(0, 2000)))
    nodes = rng.sample(range(TOPOLOGY.num_nodes), tfg.num_tasks)
    placement = dict(zip(tfg.topological_order(), nodes))
    endpoints = {
        m.name: (placement[m.src], placement[m.dst])
        for m in tfg.messages
        if placement[m.src] != placement[m.dst]
    }
    if not endpoints:
        return None
    pools = {
        name: enumerate_minimal_paths(TOPOLOGY, src, dst, max_paths=12)
        for name, (src, dst) in endpoints.items()
    }
    assignment = PathAssignment(
        TOPOLOGY, endpoints,
        {name: rng.choice(pool) for name, pool in pools.items()},
    )
    moves = [
        (name, rng.choice(pools[name]))
        for name in rng.choices(list(endpoints), k=draw(st.integers(1, 10)))
    ]
    bounds_subset = compute_time_bounds(
        timing, tau_in, list(endpoints)
    )
    return bounds_subset, assignment, moves


class TestIncrementalConsistency:
    @given(reroute_scenario())
    @settings(max_examples=30)
    def test_state_matches_fresh_rebuild_after_any_reroutes(self, scenario):
        if scenario is None:
            return
        bounds, assignment, moves = scenario
        state = UtilizationState(bounds, assignment)
        for name, path in moves:
            state.reroute(name, path)
        fresh = UtilizationState(bounds, state.assignment)
        assert abs(state.peak().value - fresh.peak().value) < 1e-9
        assert (abs(state.total_time - fresh.total_time) < 1e-9).all()
        assert (abs(state.window_time - fresh.window_time) < 1e-9).all()
        assert (abs(state.spot_load - fresh.spot_load) < 1e-9).all()
        assert (abs(state.spot_max - fresh.spot_max) < 1e-9).all()

    @given(reroute_scenario())
    @settings(max_examples=20)
    def test_report_peak_equals_state_peak(self, scenario):
        if scenario is None:
            return
        bounds, assignment, _ = scenario
        report = utilization_report(bounds, assignment)
        state = UtilizationState(bounds, assignment)
        assert abs(report.peak - state.peak().value) < 1e-9

    @given(reroute_scenario())
    @settings(max_examples=20)
    def test_evaluate_pool_is_side_effect_free(self, scenario):
        if scenario is None:
            return
        bounds, assignment, moves = scenario
        frame = CandidateFrame(bounds, TOPOLOGY, assignment.endpoints, 12)
        state = UtilizationState(bounds, assignment, frame)
        before = state.peak().value
        snapshot = state.total_time.copy()
        for name, _path in moves:
            state.evaluate_pool(name)
        # Add/subtract cycles leave float residues ~1e-16; the EPS used
        # in all schedule comparisons is 1e-9, so tolerate below that.
        assert abs(state.peak().value - before) < 1e-9
        assert (abs(state.total_time - snapshot) < 1e-9).all()