"""Unit tests for path assignments and utilisation (Defs. 5.1-5.2)."""

import copy
import pickle
import random

import numpy as np
import pytest

from repro.core.assignment import PathAssignment
from repro.core.compiler import (
    CompilerConfig,
    compile_schedule,
    routed_and_local_messages,
)
from repro.core.timebounds import compute_time_bounds
from repro.core.utilization import (
    KIND_LINK,
    KIND_SPOT,
    CandidateFrame,
    TopologyTables,
    UtilizationState,
    utilization_report,
)
from repro.errors import RoutingError, SchedulingError
from repro.experiments.setup import standard_setup
from repro.faults.residual import ResidualTopology
from repro.tfg import TFGTiming
from repro.tfg.dvb import dvb_tfg
from repro.tfg.graph import build_tfg
from repro.topology import Torus, binary_hypercube
from repro.topology.routing import links_on_path
from tests.conftest import pins


def two_message_case(cube3, sizes=(1280, 1280), share_link=True):
    """Two parallel messages on the 3-cube with controllable overlap.

    Both are released at t=10 with 10us windows; paths share link (0->1
    segment) when ``share_link``.
    """
    tfg = build_tfg(
        "pair",
        [("s1", 400), ("s2", 400), ("d1", 400), ("d2", 400)],
        [
            ("m1", "s1", "d1", sizes[0]),
            ("m2", "s2", "d2", sizes[1]),
        ],
    )
    timing = TFGTiming(tfg, 128.0, speeds=40.0)
    bounds = compute_time_bounds(timing, tau_in=100.0)
    if share_link:
        # Both messages traverse link (1, 3); m1 can escape via [0, 2, 3].
        endpoints = {"m1": (0, 3), "m2": (1, 3)}
        paths = {"m1": [0, 1, 3], "m2": [1, 3]}
    else:
        endpoints = {"m1": (0, 3), "m2": (4, 7)}
        paths = {"m1": [0, 1, 3], "m2": [4, 5, 7]}
    return bounds, PathAssignment(cube3, endpoints, paths)


class TestPathAssignment:
    def test_links_cached(self, cube3):
        bounds, assignment = two_message_case(cube3)
        assert assignment.links("m1") == ((0, 1), (1, 3))
        assert assignment.hops("m1") == 2
        assert assignment.hops("m2") == 1

    def test_set_path_validates(self, cube3):
        _, assignment = two_message_case(cube3)
        with pytest.raises(RoutingError):
            assignment.set_path("m1", [0, 1, 5, 7, 3])  # not minimal
        with pytest.raises(RoutingError):
            assignment.set_path("m1", [0, 3])  # 0 and 3 are not adjacent
        assignment.set_path("m1", [0, 2, 3])  # the other minimal path
        assert assignment.links("m1") == ((0, 2), (2, 3))

    def test_messages_on(self, cube3):
        _, assignment = two_message_case(cube3)
        assert set(assignment.messages_on((1, 3))) == {"m1", "m2"}
        assert assignment.messages_on((0, 2)) == ()

    def test_missing_path_rejected(self, cube3):
        with pytest.raises(RoutingError):
            PathAssignment(cube3, {"m": (0, 3)}, {})

    def test_copy_is_independent(self, cube3):
        _, assignment = two_message_case(cube3)
        clone = assignment.copy()
        assignment.set_path("m1", [0, 2, 3])
        assert clone.path("m1") == (0, 1, 3)


class TestLinkUtilization:
    def test_shared_link_sums_durations(self, cube3):
        bounds, assignment = two_message_case(cube3)
        report = utilization_report(bounds, assignment)
        # Two 10us no-slack messages share (1,3) in a 10us window:
        # link utilisation 2.0 and spot ratio 2.0.
        assert report.peak == pytest.approx(2.0)
        assert not report.feasible

    def test_disjoint_paths_feasible(self, cube3):
        bounds, assignment = two_message_case(cube3, share_link=False)
        report = utilization_report(bounds, assignment)
        assert report.peak == pytest.approx(1.0)  # no-slack on own links
        assert report.feasible

    def test_slack_messages_share_comfortably(self, cube3):
        bounds, assignment = two_message_case(cube3, sizes=(320, 320))
        report = utilization_report(bounds, assignment)
        # Two 2.5us messages in 10us windows sharing a link: U = 5/10.
        assert report.peak == pytest.approx(0.5)
        assert report.feasible

    def test_definition_51_denominator_is_active_union(self, cube3):
        # One message on a link: U_j = duration / window length.
        bounds, assignment = two_message_case(cube3, sizes=(640, 320),
                                              share_link=False)
        report = utilization_report(bounds, assignment)
        per_link = report.link_utilizations
        assert per_link[(0, 1)] == pytest.approx(5.0 / 10.0)
        assert per_link[(4, 5)] == pytest.approx(2.5 / 10.0)


class TestSpotUtilization:
    def test_forced_load_catches_confined_slack_messages(self, cube3):
        # m1 no-slack (10us/10us window), m2 slack-free in the same single
        # interval: Def 5.1 alone would average over the union, but the
        # spot must reject m2 sharing m1's link.
        bounds, assignment = two_message_case(cube3, sizes=(1280, 640))
        state = UtilizationState(bounds, assignment)
        witness = state.peak()
        assert witness.kind == KIND_SPOT
        assert witness.value == pytest.approx(1.5)  # (10 + 5) / 10

    def test_no_slack_forced_equals_interval_length(self, cube3):
        bounds, assignment = two_message_case(cube3)
        state = UtilizationState(bounds, assignment)
        i = bounds.index["m1"]
        for k in bounds.active_intervals("m1"):
            assert state.forced[i, k] == pytest.approx(
                bounds.intervals.lengths[k]
            )

    def test_witness_position_names_interval(self, cube3):
        bounds, assignment = two_message_case(cube3)
        witness = UtilizationState(bounds, assignment).peak()
        assert witness.kind == KIND_SPOT
        assert witness.interval >= 0
        assert witness.link == (1, 3)
        assert "interval" in witness.describe()


class TestIncrementalMaintenance:
    def test_reroute_updates_match_fresh_state(self, cube3):
        bounds, assignment = two_message_case(cube3)
        state = UtilizationState(bounds, assignment)
        state.reroute("m1", [0, 2, 3])
        fresh = UtilizationState(bounds, state.assignment)
        assert state.peak().value == pytest.approx(fresh.peak().value)
        assert (state.total_time == fresh.total_time).all()
        assert (state.spot_load == fresh.spot_load).all()
        # The incremental caches agree with a from-scratch build.
        assert state.window_time == pytest.approx(fresh.window_time)
        assert state.spot_max == pytest.approx(fresh.spot_max)

    def test_window_time_cache_matches_matrix(self, cube3):
        bounds, assignment = two_message_case(cube3)
        state = UtilizationState(bounds, assignment)
        for _ in range(3):
            state.reroute("m1", [0, 2, 3])
            state.reroute("m1", [0, 1, 3])
        expected = (state.active_count > 0) @ np.asarray(
            bounds.intervals.lengths
        )
        assert state.window_time == pytest.approx(expected)

    def test_evaluate_pool_restores_state(self, cube3):
        bounds, assignment = two_message_case(cube3)
        frame = CandidateFrame(bounds, cube3, assignment.endpoints)
        state = UtilizationState(bounds, assignment, frame)
        before = state.peak().value
        ((path, outcome),) = state.evaluate_pool("m1")
        assert path == (0, 2, 3)
        assert outcome.value < before  # moving off the shared link helps
        assert state.peak().value == pytest.approx(before)
        assert state.assignment.path("m1") == (0, 1, 3)

    def test_link_kind_witness_when_no_hotspot(self, cube3):
        bounds, assignment = two_message_case(cube3, sizes=(320, 320))
        witness = UtilizationState(bounds, assignment).peak()
        assert witness.kind == KIND_LINK
        assert witness.interval == -1


def dvb_frame(setup, load, max_paths):
    """Bounds, endpoints and a candidate frame of a DVB setup."""
    routed, _ = routed_and_local_messages(setup.timing, setup.allocation)
    endpoints = {
        name: (
            setup.allocation[setup.tfg.message(name).src],
            setup.allocation[setup.tfg.message(name).dst],
        )
        for name in routed
    }
    bounds = compute_time_bounds(
        setup.timing, setup.tau_in_for_load(load), routed
    )
    frame = CandidateFrame(bounds, setup.topology, endpoints, max_paths)
    return bounds, endpoints, frame


def random_assignment(rng, setup, endpoints, frame, validated=None):
    return PathAssignment(
        setup.topology,
        endpoints,
        {name: rng.choice(pool) for name, pool in frame.pools.items()},
        validated=validated,
    )


class TestCandidateFrame:
    def test_incidence_difference_is_the_hand_built_delta(self, dvb_setup_128):
        """``enter[candidate] + leave[current]``, decoded, is the -1/0/+1
        row the evaluation used to assemble link by link, and the touched
        rows are exactly the links some pool path crosses."""
        _, _, frame = dvb_frame(dvb_setup_128, 0.6, max_paths=48)
        checked = 0
        for name, pool in frame.pools.items():
            touched = frame.tables[name].touched
            links = [
                [(min(u, v), max(u, v)) for u, v in zip(path, path[1:])]
                for path in pool
            ]
            crossed = {frame.link_index[link] for path in links for link in path}
            assert touched.rows.tolist() == sorted(crossed)
            assert touched.row_set == crossed
            t = touched.rows.size
            for current, old_links in enumerate(links):
                for candidate, new_links in enumerate(links):
                    by_hand = np.zeros(len(frame.link_list), dtype=np.int8)
                    for link in old_links:
                        if link not in new_links:
                            by_hand[frame.link_index[link]] = -1
                    for link in new_links:
                        if link not in old_links:
                            by_hand[frame.link_index[link]] = 1
                    picks = touched.enter[candidate] + touched.leave[current]
                    assert np.array_equal(picks % t, np.arange(t))
                    decoded = np.zeros(len(frame.link_list), dtype=np.int8)
                    decoded[touched.rows] = picks // t - 1
                    assert np.array_equal(decoded, by_hand)
                    checked += 1
        assert checked > 1000

    def test_shared_frame_state_equals_private_frame_state(
        self, dvb_setup_128
    ):
        """200 seeded reroutes: a state on a frame other states use and a
        state on its own private frame hold bit-identical arrays."""
        setup = dvb_setup_128
        bounds, endpoints, frame = dvb_frame(setup, 0.6, max_paths=16)
        rng = random.Random(11)
        start = random_assignment(rng, setup, endpoints, frame)
        shared = UtilizationState(
            bounds,
            PathAssignment(
                setup.topology, endpoints, start.as_dict(),
                validated=frame.validated,
            ),
            frame,
        )
        private = UtilizationState(bounds, start)
        assert private.frame is not frame
        # A neighbour on the same frame, moving differently.
        neighbour = UtilizationState(
            bounds,
            random_assignment(
                rng, setup, endpoints, frame, validated=frame.validated
            ),
            frame,
        )
        movable = [n for n, pool in frame.pools.items() if len(pool) > 1]
        for _ in range(200):
            name = rng.choice(movable)
            path = rng.choice(frame.pools[name])
            predicted = dict(
                (tuple(p), w) for p, w in shared.evaluate_pool(name)
            ).get(tuple(path))
            shared.reroute(name, path)
            private.reroute(name, path)
            if predicted is not None:  # else the message stayed put
                assert private.peak().value == pytest.approx(predicted.value)
            other = rng.choice(movable)
            neighbour.reroute(other, rng.choice(frame.pools[other]))
        for array in (
            "total_time", "window_time", "active_count", "spot_load",
            "spot_max",
        ):
            assert np.array_equal(
                getattr(shared, array), getattr(private, array)
            ), array
        assert shared.peak() == private.peak()
        assert shared.assignment.as_dict() == private.assignment.as_dict()

    def test_validation_memo_never_waives_a_check(self, cube3):
        _, assignment = two_message_case(cube3)
        memo = {}
        shared = PathAssignment(
            cube3,
            assignment.endpoints,
            assignment.as_dict(),
            validated=memo,
        )
        assert (0, 1, 3) in memo and (1, 3) in memo
        for _ in range(2):  # a failure is never remembered as a success
            with pytest.raises(RoutingError, match="not minimal"):
                shared.set_path("m1", [0, 1, 5, 7, 3])
            with pytest.raises(RoutingError, match="not a link"):
                shared.set_path("m1", [0, 3])
            # Validated, memoised — and another message's endpoints.
            with pytest.raises(RoutingError, match="do not match"):
                shared.set_path("m2", [0, 1, 3])
            with pytest.raises(RoutingError, match="do not match"):
                shared.copy().set_path("m1", [1, 3])
        assert shared.path("m1") == (0, 1, 3)
        assert shared.path("m2") == (1, 3)
        assert set(memo) == {(0, 1, 3), (1, 3)}


def full_width_witnesses(state, name, paths):
    """The candidate evaluation over every link (the arithmetic before
    it was restricted to touched links): per candidate, each link's
    hypothetical total, window and spot maximum, then ``np.argmax``."""
    frame = state.frame
    i = state.bounds.index[name]

    def row(path):
        incidence = np.zeros(len(frame.link_list), dtype=np.int8)
        for u, v in zip(path, path[1:]):
            incidence[frame.link_index[(min(u, v), max(u, v))]] = 1
        return incidence

    current = row(state.assignment.path(name))
    ks = frame.active_ks[i]
    counts = state.active_count[:, ks]
    gained = (state.lengths[ks][None, :] * (counts == 0)).sum(axis=1)
    lost = (state.lengths[ks][None, :] * (counts == 1)).sum(axis=1)
    ratios = state.lengths[None, :]
    spot_added = ((state.spot_load + state.forced[i]) / ratios).max(axis=1)
    spot_removed = ((state.spot_load - state.forced[i]) / ratios).max(axis=1)
    witnesses = []
    for path in paths:
        delta = row(path) - current
        added, removed = delta > 0, delta < 0
        total = state.total_time + delta * state.durations[i]
        window = (
            state.window_time
            + np.where(added, gained, 0.0)
            - np.where(removed, lost, 0.0)
        )
        spot = np.where(
            added, spot_added, np.where(removed, spot_removed, state.spot_max)
        )
        link_u = np.zeros_like(total)
        np.divide(total, window, out=link_u, where=window > 1e-9)
        j_link, j_spot = int(np.argmax(link_u)), int(np.argmax(spot))
        if spot[j_spot] >= link_u[j_link] - 1e-9 and spot[j_spot] > 1 + 1e-9:
            loads = state.spot_load[j_spot] + delta[j_spot] * state.forced[i]
            witnesses.append((float(spot[j_spot]), KIND_SPOT, j_spot,
                              int(np.argmax(loads / state.lengths))))
        else:
            witnesses.append((float(link_u[j_link]), KIND_LINK, j_link, -1))
    return witnesses


def as_tuple(state, witness):
    return (witness.value, witness.kind, state.link_index[witness.link],
            witness.interval)


class TestTouchedLinkEvaluation:
    @pytest.mark.parametrize("load", [0.3, 0.6, 1.0])
    def test_equals_the_full_width_arithmetic_bit_for_bit(
        self, dvb_setup_128, load
    ):
        """Seeded random states and reroutes: every candidate's witness
        (value, kind, link, interval) equals the all-links evaluation,
        ties between touched and untouched links included."""
        setup = dvb_setup_128
        bounds, endpoints, frame = dvb_frame(setup, load, max_paths=16)
        rng = random.Random(f"touched:{load}")
        movable = [n for n, pool in frame.pools.items() if len(pool) > 1]
        compared = spots = 0
        for _ in range(3):
            state = UtilizationState(
                bounds,
                random_assignment(
                    rng, setup, endpoints, frame, validated=frame.validated
                ),
                frame,
            )
            for _ in range(25):
                for name in movable:
                    evaluated = state.evaluate_pool(name)
                    paths = [path for path, _ in evaluated]
                    assert [
                        as_tuple(state, w) for _, w in evaluated
                    ] == full_width_witnesses(state, name, paths), name
                    compared += len(evaluated)
                    spots += sum(w.kind == KIND_SPOT for _, w in evaluated)
                name = rng.choice(movable)
                state.reroute(name, rng.choice(frame.pools[name]))
        assert compared > 5000
        if load == 1.0:
            assert spots > 0

    def test_current_path_off_the_pool_is_touched_too(self, cube3):
        """A message on a path its (truncated) pool lacks: the path's
        links count as touched, and both pool paths score exactly as
        under a pool that holds the current path."""
        tfg = build_tfg(
            "corner",
            [("s", 400), ("d", 400), ("t", 400), ("u", 400)],
            [("m", "s", "d", 1280), ("n", "t", "u", 1280)],
        )
        bounds = compute_time_bounds(TFGTiming(tfg, 128.0, speeds=40.0), 100.0)
        endpoints = {"m": (0, 7), "n": (1, 3)}
        narrow = CandidateFrame(bounds, cube3, endpoints, max_paths=2)
        wide = CandidateFrame(bounds, cube3, endpoints)
        off_pool = next(p for p in wide.pools["m"] if p not in narrow.pools["m"])
        paths = {"m": off_pool, "n": [1, 3]}
        on_narrow = UtilizationState(
            bounds, PathAssignment(cube3, endpoints, paths), narrow
        )
        on_wide = UtilizationState(
            bounds, PathAssignment(cube3, endpoints, paths), wide
        )
        narrow_scores = on_narrow.evaluate_pool("m")
        wide_scores = dict(
            (tuple(path), w) for path, w in on_wide.evaluate_pool("m")
        )
        assert tuple(path for path, _ in narrow_scores) == narrow.pools["m"]
        for path, witness in narrow_scores:
            assert witness == wide_scores[tuple(path)]
        assert [
            as_tuple(on_narrow, w) for _, w in narrow_scores
        ] == full_width_witnesses(on_narrow, "m", narrow.pools["m"])


class TestOnePassBuild:
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_placing_messages_one_by_one(self, dvb_setup_128, seed):
        """The constructor's single accumulation leaves the arrays
        bit-identical to placing each message in turn."""
        setup = dvb_setup_128
        bounds, endpoints, frame = dvb_frame(setup, 0.6, max_paths=48)
        rng = random.Random(seed)
        assignment = random_assignment(rng, setup, endpoints, frame)
        built = UtilizationState(bounds, assignment, frame)
        placed = UtilizationState(bounds, assignment, frame)
        for array in (
            placed.total_time, placed.active_count, placed.spot_load,
            placed.window_time, placed.spot_max,
        ):
            array.fill(0)
        for name in assignment.messages:
            placed._accumulate([(name, assignment.links(name))], sign=+1)
        for array in (
            "total_time", "window_time", "active_count", "spot_load",
            "spot_max",
        ):
            assert np.array_equal(
                getattr(built, array), getattr(placed, array)
            ), array
        assert built.peak() == placed.peak()


STATE_ARRAYS = (
    "total_time", "window_time", "active_count", "spot_load", "spot_max",
)


def corpus_frames(max_paths=16):
    """``(topology, bounds, endpoints, frame)`` of the seed-0 ``matrix_cold``
    instances, the compiles ``tests/data/assign_corpus.json`` pins."""
    inputs = pins().inputs
    instances = inputs.Instances()
    for op in inputs.op_list("matrix_cold", 0):
        timing, topology, allocation, tau_in = instances.compile_op(op)
        routed, _ = routed_and_local_messages(timing, allocation)
        endpoints = {
            name: (
                allocation[timing.tfg.message(name).src],
                allocation[timing.tfg.message(name).dst],
            )
            for name in routed
        }
        bounds = compute_time_bounds(timing, tau_in, routed)
        yield topology, bounds, endpoints, CandidateFrame(
            bounds, topology, endpoints, max_paths
        )


def general_reroute(state, name, path):
    """:meth:`UtilizationState.reroute` through ``_accumulate``'s general
    path: a second, link-less entry keeps the one-message branch out."""
    state._accumulate(
        [(name, state.assignment.links(name)), (name, ())], sign=-1
    )
    state.assignment.set_path(name, path)
    state._accumulate(
        [(name, state.assignment.links(name)), (name, ())], sign=+1
    )


class TestOneMessageBranch:
    def test_reroutes_equal_the_general_accumulation_bit_for_bit(self):
        """Seeded random reroute sequences on every corpus instance: after
        each, the five arrays of the in-place branch and of the general
        ``np.add.at`` path hold the same bytes."""
        rng = random.Random("one-message")
        moves = 0
        for topology, bounds, endpoints, frame in corpus_frames():
            start = {
                name: rng.choice(pool) for name, pool in frame.pools.items()
            }
            branch, general = (
                UtilizationState(
                    bounds,
                    PathAssignment(
                        topology, endpoints, start, validated=frame.validated
                    ),
                    frame,
                )
                for _ in range(2)
            )
            movable = [n for n, pool in frame.pools.items() if len(pool) > 1]
            for _ in range(30 if movable else 0):
                name = rng.choice(movable)
                path = rng.choice(frame.pools[name])
                branch.reroute(name, path)
                general_reroute(general, name, path)
                for array in STATE_ARRAYS:
                    ours = getattr(branch, array)
                    theirs = getattr(general, array)
                    assert ours.dtype == theirs.dtype, array
                    assert ours.tobytes() == theirs.tobytes(), array
                moves += 1
            assert branch.peak() == general.peak()
        assert moves > 500


class TestTopologyTables:
    def test_tables_equal_a_fresh_enumeration(self):
        """Every corpus table is the topology's own enumeration, with the
        touched links a fresh ``TopologyTables`` derives, and a second
        frame on the same topology object reuses it."""
        checked = 0
        for topology, bounds, endpoints, frame in corpus_frames():
            again = CandidateFrame(bounds, topology, endpoints, 16)
            fresh = TopologyTables(topology)
            for name, table in frame.tables.items():
                src, dst = endpoints[name]
                assert again.tables[name] is table
                assert table.paths == tuple(
                    tuple(path)
                    for path in topology.minimal_path_pool(src, dst, 16)
                )
                rebuilt = fresh.touched_by(table.paths)
                assert table.touched.row_set == rebuilt.row_set
                for field in ("rows", "enter", "leave"):
                    assert np.array_equal(
                        getattr(table.touched, field), getattr(rebuilt, field)
                    ), field
                checked += 1
        assert checked > 500

    def test_one_table_per_pair_whatever_caps_a_machine_is_asked(self):
        """A machine compiled under many caps keeps one table per routed
        ``(src, dst)``, and its cap-48 tables are a fresh machine's."""
        machine = binary_hypercube(6)
        setup = standard_setup(dvb_tfg(5), machine, 128.0)
        routed, _ = routed_and_local_messages(setup.timing, setup.allocation)
        tfg = setup.timing.tfg
        pairs = {
            (
                setup.allocation[tfg.message(name).src],
                setup.allocation[tfg.message(name).dst],
            )
            for name in routed
        }
        for cap in (1, 2, 3, 7, 48, 10**6, 48):
            try:
                compile_schedule(
                    setup.timing, machine, setup.allocation,
                    setup.tau_in_for_load(0.4), CompilerConfig(max_paths=cap),
                )
            except SchedulingError:
                pass  # the small caps are infeasible; their tables count
        held = machine.candidate_tables._tables
        assert set(held) == pairs
        fresh = binary_hypercube(6)
        own = TopologyTables(fresh)
        for (src, dst), (cap, table) in held.items():
            assert cap == 48
            theirs = own.table(fresh, src, dst, 48)
            assert table.paths == theirs.paths
            assert table.touched.row_set == theirs.touched.row_set
            for field in ("rows", "enter", "leave"):
                ours = getattr(table.touched, field)
                assert ours.dtype == getattr(theirs.touched, field).dtype
                assert np.array_equal(ours, getattr(theirs.touched, field))

    def test_shared_tables_are_immutable(self, cube3):
        bounds, assignment = two_message_case(cube3)
        frame = CandidateFrame(bounds, cube3, assignment.endpoints)
        table = frame.tables["m1"]
        assert isinstance(table.paths, tuple)
        assert all(isinstance(path, tuple) for path in table.paths)
        assert isinstance(table.touched.row_set, frozenset)
        for array in (table.touched.rows, table.touched.enter,
                      table.touched.leave):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        assert isinstance(frame.link_list, tuple)
        with pytest.raises(TypeError):
            frame.link_index[(0, 1)] = 5

    def test_a_residual_topology_never_receives_its_bases_tables(self):
        base = Torus((4, 4))
        endpoints = {"m1": (0, 5), "m2": (1, 2)}
        bounds, _ = two_message_case(binary_hypercube(3))
        on_base = CandidateFrame(bounds, base, endpoints, 48)
        # Drop a link no pool crosses: the pools keep their paths.
        crossed = {
            link for pool in on_base.pools.values() for path in pool
            for link in links_on_path(path)
        }
        spare = next(link for link in base.links if link not in crossed)
        residual = ResidualTopology(base, [spare])
        assert residual == ResidualTopology(base, [spare])
        on_residual = CandidateFrame(bounds, residual, endpoints, 48)
        assert residual.candidate_tables is not base.candidate_tables
        assert on_residual.shared is residual.candidate_tables
        assert on_residual.link_list == tuple(sorted(residual.links))
        assert spare in on_base.link_index
        assert spare not in on_residual.link_index
        for name, (src, dst) in endpoints.items():
            assert on_residual.tables[name] is not on_base.tables[name]
            assert on_residual.pools[name] == tuple(
                tuple(path)
                for path in residual.minimal_path_pool(src, dst, 48)
            )
        # A pickled or copied topology builds its own, too.
        for clone in (pickle.loads(pickle.dumps(base)), copy.copy(base)):
            assert clone.candidate_tables is None
        assert base.candidate_tables is on_base.shared
