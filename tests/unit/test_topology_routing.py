"""Unit tests for LSD->MSD routing and minimal-path enumeration."""

import math

import pytest

from repro.errors import RoutingError
from repro.topology import (
    Torus,
    enumerate_minimal_paths,
    links_on_path,
    lsd_to_msd_route,
    validate_path,
)
from repro.topology.paths import iter_minimal_paths


class TestLsdToMsd:
    def test_corrects_lsd_first(self, cube3):
        # 0 (000) -> 7 (111): LSD-first means flip bit 0, then 1, then 2.
        assert lsd_to_msd_route(cube3, 0, 7) == [0, 1, 3, 7]

    def test_single_hop_ghc(self, ghc444):
        # GHC corrects a whole digit in one hop.
        src = ghc444.node_at((0, 0, 0))
        dst = ghc444.node_at((3, 0, 0))
        assert lsd_to_msd_route(ghc444, src, dst) == [src, dst]

    def test_torus_walks_ring(self, torus88):
        src = torus88.node_at((0, 0))
        dst = torus88.node_at((3, 0))
        path = torus88_path = lsd_to_msd_route(torus88, src, dst)
        assert torus88_path == [
            torus88.node_at((k, 0)) for k in range(4)
        ]
        validate_path(torus88, path, src, dst)

    def test_torus_takes_short_way_round(self, torus88):
        src = torus88.node_at((0, 0))
        dst = torus88.node_at((6, 0))
        path = lsd_to_msd_route(torus88, src, dst)
        assert len(path) - 1 == 2  # 0 -> 7 -> 6 (backwards around the ring)

    def test_half_ring_tie_prefers_positive(self, torus88):
        src = torus88.node_at((0, 0))
        dst = torus88.node_at((4, 0))
        path = lsd_to_msd_route(torus88, src, dst)
        assert path[1] == torus88.node_at((1, 0))

    def test_self_route(self, cube3):
        assert lsd_to_msd_route(cube3, 5, 5) == [5]

    def test_route_is_minimal_everywhere(self, ghc444):
        for src in (0, 17, 42):
            for dst in range(0, 64, 5):
                path = lsd_to_msd_route(ghc444, src, dst)
                assert len(path) - 1 == ghc444.distance(src, dst)
                if src != dst:
                    validate_path(ghc444, path, src, dst)

    def test_deterministic(self, torus88):
        assert lsd_to_msd_route(torus88, 3, 60) == lsd_to_msd_route(torus88, 3, 60)


class TestValidatePath:
    def test_accepts_valid(self, cube3):
        validate_path(cube3, [0, 1, 3], 0, 3)

    def test_rejects_wrong_endpoints(self, cube3):
        with pytest.raises(RoutingError):
            validate_path(cube3, [0, 1, 3], 0, 7)

    def test_rejects_non_adjacent_hop(self, cube3):
        with pytest.raises(RoutingError):
            validate_path(cube3, [0, 3], 0, 3)

    def test_rejects_revisit(self, cube3):
        with pytest.raises(RoutingError):
            validate_path(cube3, [0, 1, 0, 2], 0, 2)

    def test_rejects_non_minimal(self, cube3):
        # 0 -> 1 -> 3 -> 2 reaches 2 in 3 hops; distance is 1.
        with pytest.raises(RoutingError):
            validate_path(cube3, [0, 1, 3, 2], 0, 2)

    def test_rejects_empty(self, cube3):
        with pytest.raises(RoutingError):
            validate_path(cube3, [], 0, 0)


class TestLinksOnPath:
    def test_canonical_links(self):
        assert links_on_path([4, 2, 6]) == ((2, 4), (2, 6))

    def test_empty_for_single_node(self):
        assert links_on_path([3]) == ()


class TestEnumeration:
    def test_hypercube_counts_are_factorial(self, cube6):
        # h differing bits -> h! minimal paths.
        for dst, h in ((1, 1), (3, 2), (7, 3), (63, 6)):
            paths = enumerate_minimal_paths(cube6, 0, dst)
            assert len(paths) == math.factorial(h)

    def test_all_enumerated_paths_valid_and_distinct(self, ghc444):
        src, dst = 0, 63
        paths = enumerate_minimal_paths(ghc444, src, dst)
        assert len(paths) == len({tuple(p) for p in paths})
        for path in paths:
            validate_path(ghc444, path, src, dst)

    def test_torus_interleaving_count(self, torus88):
        # dx=2, dy=3 with no ties: C(5,2) = 10 interleavings.
        src = torus88.node_at((0, 0))
        dst = torus88.node_at((2, 3))
        assert len(enumerate_minimal_paths(torus88, src, dst)) == 10

    def test_torus_half_ring_tie_doubles(self):
        topo = Torus((8,))
        # offset 4 on an 8-ring: both directions minimal.
        assert len(enumerate_minimal_paths(topo, 0, 4)) == 2

    def test_cap_respected_and_deterministic(self, cube6):
        capped = enumerate_minimal_paths(cube6, 0, 63, max_paths=10)
        assert len(capped) == 10
        full = enumerate_minimal_paths(cube6, 0, 63)
        assert [tuple(p) for p in capped] == [tuple(p) for p in full[:10]]

    def test_bad_cap_rejected(self, cube3):
        with pytest.raises(RoutingError):
            enumerate_minimal_paths(cube3, 0, 1, max_paths=0)

    def test_self_enumeration(self, cube3):
        assert enumerate_minimal_paths(cube3, 2, 2) == [[2]]

    def test_lsd_route_is_first_enumerated(self, cube6):
        # The deterministic enumeration starts with the LSD-first ordering.
        first = enumerate_minimal_paths(cube6, 0, 7, max_paths=1)[0]
        assert first == lsd_to_msd_route(cube6, 0, 7)

    def test_lazy_iteration(self, cube6):
        iterator = iter_minimal_paths(cube6, 0, 63)
        first = next(iterator)
        validate_path(cube6, first, 0, 63)
