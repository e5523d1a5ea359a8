"""The activity matrix equals its definition, cell for cell.

``TimeBoundSet`` fills ``activity`` by bisecting each window over the
sorted interval boundaries; the definition is one
``MessageTimeBounds.contains(t_k, t_{k+1})`` per (message, interval).
The two must agree on every cell, including windows whose ends sit
within a few ``EPS`` of a boundary, where the tolerant comparison
decides.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.timebounds import (
    MessageTimeBounds,
    TimeBoundSet,
    compute_time_bounds,
)
from repro.experiments.setup import standard_setup
from repro.tfg import TFGTiming, dvb_tfg, random_layered_tfg
from repro.topology import make_topology
from repro.units import EPS

JITTER = (0.0, EPS / 2, -EPS / 2, EPS, -EPS, 2 * EPS, -2 * EPS)


def by_definition(bounds: TimeBoundSet) -> np.ndarray:
    """``activity`` as the module docstring defines it."""
    return np.array(
        [
            [
                bounds.bounds[name].contains(*bounds.intervals.interval(k))
                for k in range(bounds.intervals.count)
            ]
            for name in bounds.order
        ],
        dtype=bool,
    ).reshape(len(bounds.order), bounds.intervals.count)


@st.composite
def bound_sets(draw):
    """Windows ending at 0, at tau_in, at shared cut points and wrapped
    across the frame edge, every end jittered by up to 2 EPS."""
    tau_in = draw(st.sampled_from((1.0, 96.15, 1000.0, 12345.678)))
    cuts = [0.0, tau_in] + draw(
        st.lists(st.floats(0.0, tau_in), min_size=1, max_size=5)
    )

    def end():
        return draw(st.sampled_from(cuts)) + draw(st.sampled_from(JITTER))

    bounds = {}
    for i in range(draw(st.integers(1, 8))):
        a, b = sorted((end(), end()))
        if draw(st.booleans()):  # wrapped: [0, d] and [r, tau_in]
            windows = ((0.0 + draw(st.sampled_from(JITTER)), a),
                       (b, tau_in + draw(st.sampled_from(JITTER))))
        else:
            windows = ((a, b),)
        bounds[f"m{i}"] = MessageTimeBounds(
            name=f"m{i}", release=windows[-1][0], deadline=windows[0][1],
            duration=0.0, windows=windows,
        )
    return TimeBoundSet(tau_in, bounds)


@given(bound_sets())
def test_activity_is_contains_at_eps_edges(bounds):
    np.testing.assert_array_equal(bounds.activity, by_definition(bounds))


def test_nan_window_holds_no_interval():
    nan = float("nan")
    bounds = TimeBoundSet(10.0, {
        name: MessageTimeBounds(name, 0.0, 5.0, 1.0, windows)
        for name, windows in (
            ("a", ((nan, 5.0),)), ("b", ((0.0, nan),)), ("c", ((2.0, 5.0),)),
        )
    })
    np.testing.assert_array_equal(bounds.activity, by_definition(bounds))
    assert not bounds.activity[:2].any()


LOADS = np.linspace(0.025, 1.0, 40).tolist()


@pytest.mark.parametrize("models", [5, 12])
@pytest.mark.parametrize(
    "topology", ["hypercube6", "ghc444", "torus8x8", "torus4x4x4"]
)
@pytest.mark.parametrize("bandwidth", [64.0, 128.0])
def test_activity_is_contains_on_dvb(models, topology, bandwidth):
    setup = standard_setup(dvb_tfg(models), make_topology(topology),
                           bandwidth)
    routed = [
        m.name for m in setup.timing.tfg.messages
        if setup.allocation[m.src] != setup.allocation[m.dst]
    ]
    for load in LOADS:
        bounds = compute_time_bounds(
            setup.timing, setup.tau_in_for_load(load), routed
        )
        np.testing.assert_array_equal(bounds.activity, by_definition(bounds))


def test_activity_is_contains_on_random_tfgs():
    for seed in range(40):
        tfg = random_layered_tfg(seed=seed, layers=3, width=4)
        tau_c = max(t.ops for t in tfg.tasks) / 20.0
        tau_m = max(m.size_bytes for m in tfg.messages) / 128.0
        timing = TFGTiming(tfg, 128.0, speeds=20.0,
                           message_window=max(tau_c, tau_m))
        for scale in np.linspace(1.0, 3.0, 20).tolist():
            tau_in = max(timing.tau_c * scale, timing.message_window)
            bounds = compute_time_bounds(timing, tau_in)
            np.testing.assert_array_equal(
                bounds.activity, by_definition(bounds)
            )
