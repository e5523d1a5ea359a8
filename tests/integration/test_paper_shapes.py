"""The paper's evaluation, pinned: one ``paper.*`` row per DESIGN.md §4 experiment.

``test_row_reproduces`` replays each row's ``tools/pins.py`` producer
against ``tests/data/pins.json`` (≈ 15 s for all sixteen on 2 vCPUs: the sweeps
several rows share run once per process), so a change that moves a
verdict, a U curve, an OI flag or a WR spike fails here and is re-pinned
by ``python tools/pins.py`` (docs/verification.md "Re-pinning").  The
other tests assert the paper's shapes over the pinned series: who wins,
where the feasibility cutoffs fall, the paper's orderings.  Verdicts are
the matrix codes: ``OK``, or ``U>1``/``ALO``/``SCH`` for the stage that
refused.  ``repro-sr utilization`` and ``repro-sr pipeline`` print the
same series as tables.
"""

import pytest

from tests.conftest import pins

ROWS = ("fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "claim3", "abl_vc",
        "abl_ap", "abl_sync", "abl_alloc", "abl_adapt", "abl_saf", "abl_grain",
        "gen", "fault_recovery")


def row(name):
    return pins().pinned(f"paper.{name}")


def verdicts(points):
    return {load: point["verdict"] for load, point in points.items()}


def feasible(verdicts):
    """The loads (as floats) whose verdict is ``OK``."""
    return [float(load) for load, verdict in verdicts.items() if verdict == "OK"]


def oi_count(points, series):
    return sum(point[series]["oi"] for point in points.values())


@pytest.mark.parametrize("name", ROWS)
def test_row_reproduces(name):
    assert pins().produce(f"paper.{name}") == row(name)


class TestUtilizationFigures:
    def test_assign_paths_never_loses_to_lsd(self):
        for machines in (row("fig5"), row("fig6")):
            for points in machines.values():
                assert all(p["u_assign_paths"] <= p["u_lsd"] + 1e-9
                           for p in points.values())

    def test_ghc444_reaches_u_one_at_most_loads(self):
        points = row("fig5")["ghc444"]
        assert sum(p["u_assign_paths"] <= 1.0 + 1e-9 for p in points.values()) >= 6

    def test_torus444_sweep_is_utilization_bound(self):
        points = row("fig6")["torus4x4x4"]
        assert max(p["u_assign_paths"] for p in points.values()) > 1.0


def test_sr_delivers_exactly_the_input_rate_where_it_compiles():
    for figure in ("fig7", "fig8", "fig9", "fig10"):
        for points in row(figure).values():
            for point in points.values():
                assert (point["verdict"] == "OK") == (point["sr_throughput"] is not None)
                if point["sr_throughput"] is not None:
                    assert abs(point["sr_throughput"] - 1.0) < 1e-6


def test_link_rich_machines_and_bandwidth_extend_feasibility():
    at64 = {"ghc444": row("fig8")["64"], "hypercube6": row("fig7")["64"], **row("fig6")}
    at128 = {"ghc444": row("fig8")["128"], "hypercube6": row("fig7")["128"],
             "torus8x8": row("fig9")["128"], "torus4x4x4": row("fig10")["128"]}
    count64 = {m: len(feasible(verdicts(p))) for m, p in at64.items()}
    assert count64["ghc444"] >= count64["hypercube6"] >= max(
        count64["torus8x8"], count64["torus4x4x4"])
    for machine, points in at128.items():
        assert len(feasible(verdicts(points))) >= count64[machine]


class TestFig7Shape:
    def test_6cube_b64_feasible_only_at_light_load(self):
        points = row("fig7")["64"]
        assert feasible(verdicts(points)) == [0.2]
        assert all(point["wr"]["oi"] for load, point in points.items() if float(load) > 0.2)

    def test_6cube_b128_feasible_at_extremes(self):
        assert len(feasible(verdicts(row("fig7")["128"]))) == 12

    def test_6cube_b128_wr_oi_at_high_load(self):
        points = row("fig7")["128"]
        assert all(point["wr"]["oi"] for load, point in points.items() if float(load) >= 0.56)


class TestFig8Shape:
    def test_ghc444_b64_beats_6cube(self):
        loads = feasible(verdicts(row("fig8")["64"]))
        # Feasible deep into the sweep where the 6-cube long gave up...
        assert len(loads) >= 8 and 0.6364 in loads and 0.9273 in loads
        # ...but not at the maximum rate (the paper's other exception).
        assert 1.0 not in loads

    def test_ghc444_b128_feasible_everywhere(self):
        assert len(feasible(verdicts(row("fig8")["128"]))) == 12


class TestFig6And9Shape:
    def test_torus8x8_b64_utilization_bound_everywhere(self):
        points = row("fig6")["torus8x8"]
        assert all(p["u_assign_paths"] > 1.0 for p in points.values())
        assert set(verdicts(points).values()) == {"U>1"}

    def test_torus8x8_b128_sparse_feasibility(self):
        points = row("fig9")["128"]
        loads = feasible(verdicts(points))
        assert loads[0] == 0.2 and 1.0 not in loads
        # The paper's signature failure: some points die in the LP stages,
        # not only at the utilisation gate.
        assert {v for v in verdicts(points).values() if v != "OK"} == {"U>1", "ALO", "SCH"}
        # Half-duplex torus rings deadlock dimension-ordered wormhole
        # routing; every run needed recoveries and shows OI.
        assert all(point["wr"]["recoveries"] > 0 and point["wr"]["oi"]
                   for point in points.values())


class TestFig10Shape:
    def test_torus444_b128_feasible_at_max_load(self):
        points = row("fig10")["128"]
        assert len(feasible(verdicts(points))) == 12
        assert points["1.0000"]["wr"]["oi"]


class TestClaim3:
    def test_wr_alternates_at_tight_periods_and_sr_never(self):
        periods = row("claim3")
        assert periods["12"]["wr"]["oi"] and not periods["60"]["wr"]["oi"]
        assert all(point["verdict"] == "OK" and point["sr_throughput"] == [1.0, 1.0, 1.0]
                   for point in periods.values())


class TestAblations:
    def test_two_virtual_channels_never_reduce_oi(self):
        points = row("abl_vc")
        assert oi_count(points, "vc2") >= oi_count(points, "plain")

    def test_assign_paths_schedules_what_lsd_routes_cannot(self):
        for points in row("abl_ap").values():
            lsd = feasible({load: p["lsd"] for load, p in points.items()})
            heuristic = feasible({load: p["assign_paths"] for load, p in points.items()})
            assert len(heuristic) >= len(lsd)
            assert lsd == [] and len(heuristic) >= 11

    def test_sync_margins_never_help(self):
        counts = [len(feasible(v)) for v in row("abl_sync").values()]
        assert counts == sorted(counts, reverse=True)
        assert counts[0] == 12 and counts[-1] == 0

    def test_annealed_placement_schedules_no_fewer_than_sequential(self):
        placements = row("abl_alloc")
        count = {name: len(feasible(p["verdicts"])) for name, p in placements.items()}
        assert count["annealed"] >= count["sequential"]
        assert placements["sequential"]["verdicts"] == verdicts(row("fig7")["64"])

    def test_adaptive_routing_still_shows_oi(self):
        assert oi_count(row("abl_adapt"), "adaptive") >= 1

    def test_store_and_forward_shows_oi_too(self):
        points = row("abl_saf")
        assert oi_count(points, "store_forward") >= 1
        assert all(point["sr"] == "OK" for point in points.values())

    def test_coarsening_shortens_latency_not_schedulability(self):
        grain = row("abl_grain")
        assert len(feasible(grain["original"]["128"])) == 12
        assert grain["coarsened"]["asap_latency"] < grain["original"]["asap_latency"]
        assert len(feasible(grain["coarsened"]["64"])) < len(feasible(grain["original"]["64"]))


def test_gen_sr_is_consistent_wherever_it_compiles_and_wr_is_not():
    corpus = row("gen").values()
    assert all(p["sr_oi"] is False for p in corpus if p["verdict"] == "OK")
    assert any(p["wr_oi"] for p in corpus)


def test_fault_recovery_restores_a_jitter_free_schedule():
    for machine, seeds in row("fault_recovery").items():
        repaired = [r for r in seeds.values() if "error" not in r]
        # The scenario loads compile and the seed-0 fault is repaired on
        # both machines, so the comparison exists.
        assert "error" not in seeds["0"], machine
        for r in repaired:
            assert r["sr_jitter_p2p"] <= 1e-9 and not r["sr_oi"]
            assert r["strategy"] in {"none", "local", "recompile"}
            if r["strategy"] == "local":
                assert set(r["rerouted"]) <= set(r["affected"])
