"""Unit tests for fault models, trace generation and residual topologies."""

import math

import pytest

from repro.errors import ReproError, TopologyError
from repro.faults.models import (
    ClockDrift,
    FaultTrace,
    LinkFault,
    NodeFault,
    generate_fault_trace,
)
from repro.faults.residual import ResidualTopology


class TestLinkFault:
    def test_permanent_has_infinite_end(self):
        fault = LinkFault((0, 1), start=5.0)
        assert fault.permanent
        assert fault.end == float("inf")

    def test_transient_window(self):
        fault = LinkFault((0, 1), start=5.0, duration=10.0)
        assert not fault.permanent
        assert fault.end == 15.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ReproError):
            LinkFault((0, 1), start=-1.0)
        with pytest.raises(ReproError):
            LinkFault((0, 1), start=0.0, duration=0.0)


@pytest.mark.parametrize("fault,where", [(LinkFault, (0, 1)), (NodeFault, 0)])
@pytest.mark.parametrize("start,duration", [
    (math.nan, None), (math.inf, None), (-3.0, None), (-0.5, 1.0),
    (5.0, math.inf), (5.0, math.nan), (5.0, 0.0), (5.0, -1.0),
])
def test_outages_that_cannot_happen_are_rejected(fault, where, start, duration):
    """Both outage classes keep one rule at construction: a finite start
    >= 0, and a duration that is None or finite and > 0.  A NaN start
    would down the link at t = 0; an infinite duration would pass for
    transient, so repair would not route around a link that never
    returns."""
    with pytest.raises(ReproError):
        fault(where, start, duration)


class TestNodeFault:
    def test_expands_to_incident_links(self, cube3):
        fault = NodeFault(node=0, start=2.0)
        expanded = fault.link_faults(cube3)
        assert {f.link for f in expanded} == {(0, 1), (0, 2), (0, 4)}
        assert all(f.start == 2.0 and f.permanent for f in expanded)


class TestFaultTrace:
    def test_empty(self):
        assert FaultTrace().empty
        assert not FaultTrace(drifts=(ClockDrift(3, 0.5),)).empty

    def test_permanent_failed_links_expands_nodes(self, cube3):
        trace = FaultTrace(
            link_faults=(LinkFault((1, 3), 0.0, duration=2.0),),
            node_faults=(NodeFault(0, 1.0),),
        )
        assert trace.permanent_failed_links(cube3) == frozenset(
            {(0, 1), (0, 2), (0, 4)}
        )

    def test_drift_accumulates_per_node(self):
        trace = FaultTrace(drifts=(ClockDrift(2, 0.5), ClockDrift(2, 0.25)))
        assert trace.drift_of(2) == pytest.approx(0.75)
        assert trace.drift_of(0) == 0.0

    def test_describe_mentions_every_fault(self, cube3):
        trace = FaultTrace(
            link_faults=(LinkFault((0, 1), 1.0),),
            node_faults=(NodeFault(5, 2.0, duration=3.0),),
            drifts=(ClockDrift(2, -0.5),),
        )
        text = trace.describe()
        assert "link (0, 1)" in text
        assert "node 5" in text
        assert "drift" in text
        assert FaultTrace().describe() == "no faults"


class TestGenerateFaultTrace:
    def test_deterministic_per_seed(self, cube6):
        a = generate_fault_trace(cube6, seed=7, n_link_faults=3, n_drifts=2)
        b = generate_fault_trace(cube6, seed=7, n_link_faults=3, n_drifts=2)
        assert a == b

    def test_different_seeds_differ(self, cube6):
        a = generate_fault_trace(cube6, seed=0, n_link_faults=3)
        b = generate_fault_trace(cube6, seed=1, n_link_faults=3)
        assert a != b

    def test_respects_candidate_pool(self, cube6):
        pool = ((0, 1), (2, 3))
        trace = generate_fault_trace(
            cube6, seed=0, n_link_faults=2, candidate_links=pool
        )
        assert {f.link for f in trace.link_faults} == set(pool)

    def test_pool_exhaustion_raises(self, cube3):
        with pytest.raises(ReproError):
            generate_fault_trace(
                cube3, n_link_faults=2, candidate_links=((0, 1),)
            )

    def test_transient_fraction_one_gives_durations(self, cube6):
        trace = generate_fault_trace(
            cube6, seed=3, n_link_faults=4, transient_fraction=1.0
        )
        assert all(not f.permanent for f in trace.link_faults)

    def test_horizon_bounds_starts(self, cube6):
        trace = generate_fault_trace(cube6, seed=5, n_link_faults=5, horizon=42.0)
        assert all(0.0 <= f.start < 42.0 for f in trace.link_faults)


class TestResidualTopology:
    def test_neighbors_exclude_failed(self, cube3):
        residual = ResidualTopology(cube3, frozenset({(0, 1)}))
        assert 1 not in residual.neighbors(0)
        assert 0 not in residual.neighbors(1)
        assert set(residual.neighbors(2)) == set(cube3.neighbors(2))

    def test_links_shrink(self, cube3):
        residual = ResidualTopology(cube3, frozenset({(0, 1), (2, 6)}))
        assert len(list(residual.links)) == len(list(cube3.links)) - 2
        assert (0, 1) not in set(residual.links)

    def test_unknown_failed_link_rejected(self, cube3):
        with pytest.raises(TopologyError):
            ResidualTopology(cube3, frozenset({(0, 7)}))  # not an edge

    def test_distance_grows_around_failure(self, cube3):
        residual = ResidualTopology(cube3, frozenset({(0, 1)}))
        assert cube3.distance(0, 1) == 1
        assert residual.distance(0, 1) == 3  # e.g. 0-2-3-1

    def test_disconnection_raises(self, cube3):
        # Cut all three links of node 0.
        cut = frozenset({(0, 1), (0, 2), (0, 4)})
        residual = ResidualTopology(cube3, cut)
        assert not residual.connected(0, 7)
        with pytest.raises(TopologyError):
            residual.distance(0, 7)

    def test_minimal_path_pool_avoids_failed_links(self, cube3):
        residual = ResidualTopology(cube3, frozenset({(0, 1)}))
        pool = residual.minimal_path_pool(0, 3)
        assert pool  # still reachable
        for path in pool:
            links = {
                (min(u, v), max(u, v)) for u, v in zip(path, path[1:])
            }
            assert (0, 1) not in links
            assert len(path) - 1 == residual.distance(0, 3)

    def test_minimal_path_pool_matches_healthy_when_unaffected(self, cube3):
        residual = ResidualTopology(cube3, frozenset({(0, 1)}))
        healthy = {tuple(p) for p in cube3.minimal_path_pool(2, 7)}
        degraded = {tuple(p) for p in residual.minimal_path_pool(2, 7)}
        assert degraded <= healthy

    def test_equality_includes_failure_set(self, cube3):
        a = ResidualTopology(cube3, frozenset({(0, 1)}))
        b = ResidualTopology(cube3, frozenset({(0, 1)}))
        c = ResidualTopology(cube3, frozenset({(0, 2)}))
        assert a == b
        assert hash(a) == hash(b)
        assert a != c
        assert a != cube3

    def test_max_paths_cap(self, cube6):
        residual = ResidualTopology(cube6, frozenset({(0, 1)}))
        pool = residual.minimal_path_pool(0, 63, max_paths=4)
        assert len(pool) == 4
