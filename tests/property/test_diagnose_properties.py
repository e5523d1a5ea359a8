"""Property tests pinning the diagnoser to the compiler's arithmetic.

Satellite guarantee: the utilisation/time-bound arithmetic used by the
static diagnoser (:func:`repro.core.utilization.link_loads`, and
:func:`forced_load_matrix` beside it) must agree exactly with what the
compiler's :class:`UtilizationState` maintains incrementally — same
bounds, same forced loads, same ``U_j`` — on randomly generated
instances.  Plus the diagnoser soundness property over the head of the
fuzz corpus: a statically refuted point never compiles, and every
refutation witness survives the independent replay verifier.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.fuzz import FuzzPoint
from repro.core.assign_paths import lsd_assignment
from repro.core.compiler import CompilerConfig, compile_schedule
from repro.core.pipeline import routed_and_local_messages
from repro.core.timebounds import compute_time_bounds
from repro.core.utilization import (
    UtilizationState,
    forced_load_matrix,
    link_loads,
    window_demand,
)
from repro.diagnose import diagnose_instance, verify_refutation
from repro.errors import SchedulingError
from repro.mapping import random_allocation
from repro.tfg import TFGTiming
from repro.tfg.synth import random_layered_tfg
from repro.topology import binary_hypercube


def build_instance(seed: int, load: float):
    tfg = random_layered_tfg(
        seed, layers=3, width=2, edge_probability=0.8, name=f"p{seed}"
    )
    topology = binary_hypercube(3)
    speeds = 40.0
    tau_c = max(t.ops / speeds for t in tfg.tasks)
    max_size = max((m.size_bytes for m in tfg.messages), default=0.0)
    bandwidth = max(64.0, 1.2 * max_size / tau_c)
    timing = TFGTiming(tfg, bandwidth=bandwidth, speeds=speeds)
    allocation = random_allocation(tfg, topology, seed)
    return timing, topology, allocation, timing.tau_c / load


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    load=st.sampled_from([0.5, 0.75, 1.0]),
)
@settings(max_examples=25)
def test_link_loads_agree_with_utilization_state(seed, load):
    timing, topology, allocation, tau_in = build_instance(seed, load)
    routed, _ = routed_and_local_messages(timing, allocation)
    if not routed:
        return
    bounds = compute_time_bounds(timing, tau_in, routed)
    endpoints = {
        m.name: (allocation[m.src], allocation[m.dst])
        for m in timing.tfg.messages
        if m.name in set(routed)
    }
    assignment = lsd_assignment(topology, endpoints)
    state = UtilizationState(bounds, assignment)

    loads = link_loads(
        bounds, {name: assignment.links(name) for name in routed}
    )
    link_u = state.link_utilizations()
    for link, j in state.link_index.items():
        expected = float(link_u[j])
        got = loads[link].utilization if link in loads else 0.0
        assert got == pytest.approx(expected, abs=1e-9)
    # Peak over links must match exactly as well.
    if loads:
        peak = max(load.utilization for load in loads.values())
        assert peak == pytest.approx(float(link_u.max()), abs=1e-9)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    load=st.sampled_from([0.5, 1.0]),
)
@settings(max_examples=25)
def test_forced_load_matrix_is_the_states_matrix(seed, load):
    timing, topology, allocation, tau_in = build_instance(seed, load)
    routed, _ = routed_and_local_messages(timing, allocation)
    if not routed:
        return
    bounds = compute_time_bounds(timing, tau_in, routed)
    endpoints = {
        m.name: (allocation[m.src], allocation[m.dst])
        for m in timing.tfg.messages
        if m.name in set(routed)
    }
    assignment = lsd_assignment(topology, endpoints)
    state = UtilizationState(bounds, assignment)
    np.testing.assert_allclose(
        forced_load_matrix(bounds), state.forced, atol=0.0
    )
    # window_demand is the scalar form of a forced-matrix cell.
    lengths = np.asarray(bounds.intervals.lengths)
    for name in routed:
        bound = bounds.bounds[name]
        row = bounds.index[name]
        for k in bounds.active_intervals(name):
            assert window_demand(
                bound, float(lengths[k])
            ) == pytest.approx(float(state.forced[row, k]), abs=1e-9)


#: Head of the CI fuzz corpus; the full 48-seed gate runs in the fuzz job.
SOUNDNESS_SEEDS = range(0, 12)


@pytest.mark.parametrize("seed", SOUNDNESS_SEEDS)
def test_prescreen_soundness_on_fuzz_corpus_head(seed):
    point = FuzzPoint.from_seed(seed)
    timing, topology, allocation, tau_in = point.build()
    diagnosis = diagnose_instance(timing, topology, allocation, tau_in)
    if not diagnosis.refuted:
        return
    for refutation in diagnosis.instance_refutations:
        assert (
            verify_refutation(timing, topology, allocation, tau_in, refutation)
            == []
        )
    with pytest.raises(SchedulingError):
        compile_schedule(
            timing, topology, allocation, tau_in,
            CompilerConfig(seed=0, max_paths=16, max_restarts=2, retries=1),
        )
