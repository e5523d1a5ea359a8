"""Layer-1 static certificates (repro.diagnose.instance), their replay,
and the ``repro-sr diagnose`` command."""

import json

import pytest

from repro.cache import ScheduleCache, diagnosis_cache_key
from repro.cli import main
from repro.core.compiler import compile_schedule
from repro.diagnose import (
    SCOPE_INSTANCE,
    Diagnosis,
    diagnose_instance,
    forced_links,
    verify_refutation,
)
from repro.errors import SchedulingError
from repro.experiments import standard_setup
from repro.tfg import TFGTiming, dvb_tfg
from repro.tfg.graph import build_tfg


@pytest.fixture(scope="module")
def refuted_instance(cube6):
    """16 DVB models at full load on the 6-cube: cut-overloaded."""
    setup = standard_setup(dvb_tfg(16), cube6, bandwidth=64.0)
    return setup.timing, setup.topology, setup.allocation, setup.tau_in_for_load(1.0)


def two_on_one_link(cube3, sizes, tau_in=100.0):
    """Distance-1 messages whose only minimal path is one shared link."""
    n = len(sizes)
    tfg = build_tfg(
        "pin",
        [(f"s{i}", 400) for i in range(n)] + [(f"d{i}", 400) for i in range(n)],
        [(f"m{i}", f"s{i}", f"d{i}", sizes[i]) for i in range(n)],
    )
    timing = TFGTiming(tfg, 128.0, speeds=40.0)
    # Every source on node 1, every sink on node 3 - link (1,3) is the
    # unique minimal path for all of them.
    allocation = {}
    for i in range(n):
        allocation[f"s{i}"] = 1
        allocation[f"d{i}"] = 3
    return timing, cube3, allocation, tau_in


def fan_out_of_node_zero(cube3, size):
    """Node 0 (3 links) sends four equal messages released together, to
    its three neighbours and to node 3 (two hops, no forced link)."""
    tfg = build_tfg(
        "fan",
        [("s", 400)] + [(f"d{i}", 400) for i in range(4)],
        [(f"m{i}", "s", f"d{i}", size) for i in range(4)],
    )
    timing = TFGTiming(tfg, 128.0, speeds=40.0)
    allocation = {"s": 0, "d0": 1, "d1": 2, "d2": 4, "d3": 3}
    return timing, cube3, allocation, 100.0


class TestTrivialCertificates:
    def test_period_below_tau_c(self, dvb_setup_128):
        s = dvb_setup_128
        diagnosis = diagnose_instance(
            s.timing, s.topology, s.allocation, 0.5 * s.tau_c
        )
        assert diagnosis.refuted
        assert {r.kind for r in diagnosis.refutations} >= {"period"}

    def test_window_exceeds_period(self, tiny_timing, cube3):
        allocation = {"t0": 0, "t1": 1, "t2": 3}
        tau_in = 0.5 * tiny_timing.message_window + 1e-9
        # Keep tau_in >= tau_c irrelevant here: window check fires first
        # when the window cannot fit the frame.
        diagnosis = diagnose_instance(tiny_timing, cube3, allocation, tau_in)
        assert diagnosis.refuted
        kinds = {r.kind for r in diagnosis.refutations}
        assert kinds & {"window", "period"}

    def test_sync_margin_overflows_window(self, tiny_timing, cube3):
        allocation = {"t0": 0, "t1": 1, "t2": 3}
        tau_in = 10 * tiny_timing.tau_c
        margin = tiny_timing.message_window  # duration + margin > window
        diagnosis = diagnose_instance(
            tiny_timing, cube3, allocation, tau_in, sync_margin=margin
        )
        assert diagnosis.refuted
        assert "window" in {r.kind for r in diagnosis.refutations}

    @pytest.mark.parametrize(
        "margin", [-1.0, float("nan"), float("inf")], ids=str
    )
    def test_bad_sync_margin_is_an_input_error(
        self, tiny_timing, cube3, margin
    ):
        """Not a ``window`` refutation, and nothing is cached for it."""
        allocation = {"t0": 0, "t1": 1, "t2": 3}
        cache = ScheduleCache()
        with pytest.raises(ValueError, match="sync margin must be"):
            diagnose_instance(
                tiny_timing, cube3, allocation, 10 * tiny_timing.tau_c,
                sync_margin=margin, cache=cache,
            )
        assert cache.stats.stores == 0


class TestOverloadCertificates:
    def test_forced_link_overload(self, cube3):
        timing, topo, allocation, tau_in = two_on_one_link(
            cube3, [1280, 1280]
        )
        diagnosis = diagnose_instance(timing, topo, allocation, tau_in)
        assert diagnosis.refuted
        kinds = {r.kind for r in diagnosis.instance_refutations}
        assert kinds & {"link-overload", "window-density"}
        witness = next(
            r
            for r in diagnosis.instance_refutations
            if r.kind in ("link-overload", "window-density")
        )
        assert (1, 3) in witness.links
        assert witness.demand > witness.capacity

    def test_cut_overload_on_full_load_dvb16(self, refuted_instance):
        timing, topo, allocation, tau_in = refuted_instance
        diagnosis = diagnose_instance(timing, topo, allocation, tau_in)
        assert diagnosis.refuted
        assert "cut-overload" in {r.kind for r in diagnosis.refutations}

    def test_cut_exclusive_where_the_volume_fits(self, cube3):
        # 4 x 6us through 3 links x 10us fits by volume and no link is
        # forced to carry two, but no two 6us messages share one link
        # inside their common 10us window: four need four links.
        case = fan_out_of_node_zero(cube3, 768)
        diagnosis = diagnose_instance(*case)
        assert {r.kind for r in diagnosis.refutations} == {"cut-exclusive"}
        (witness,) = diagnosis.refutations
        assert witness.messages == ("m0", "m1", "m2", "m3")
        assert witness.links == ((0, 1), (0, 2), (0, 4))
        assert (witness.demand, witness.capacity) == (4.0, 3.0)
        # Exactly half a window each: two pack into one link's window.
        assert not diagnose_instance(*fan_out_of_node_zero(cube3, 640)).refuted

    @pytest.mark.parametrize("load", [0.2, 1.0])
    def test_dvb8_b64_6cube_refuted(self, cube6, load):
        """The fusion node's e_k fan-in: more half-window messages than
        links, whatever the period (the window is tau_c at every load)."""
        setup = standard_setup(dvb_tfg(8), cube6, bandwidth=64.0)
        diagnosis = diagnose_instance(
            setup.timing, cube6, setup.allocation, setup.tau_in_for_load(load)
        )
        assert {r.kind for r in diagnosis.refutations} == {"cut-exclusive"}
        for refutation in diagnosis.refutations:
            assert verify_refutation(
                setup.timing, cube6, setup.allocation,
                setup.tau_in_for_load(load), refutation,
            ) == []

    def test_feasible_point_not_refuted(self, dvb_setup_128, dvb_setup_64):
        # DVB(5) on the 6-cube: also at B = 64, where DVB(8) is refuted.
        for s in (dvb_setup_128, dvb_setup_64):
            diagnosis = diagnose_instance(
                s.timing, s.topology, s.allocation, s.tau_in_for_load(0.5)
            )
            assert not diagnosis.refuted
            assert diagnosis.checks  # the checks ran and were recorded

    def test_single_message_fits(self, cube3):
        timing, topo, allocation, tau_in = two_on_one_link(cube3, [1280])
        diagnosis = diagnose_instance(timing, topo, allocation, tau_in)
        assert not diagnosis.refuted

    def test_co_located_tasks_load_no_link(self, cube3):
        # The overloaded pair again, but source and sink share a node.
        timing, topo, _, tau_in = two_on_one_link(cube3, [1280, 1280])
        local = {task.name: 1 for task in timing.tfg.tasks}
        assert not diagnose_instance(timing, topo, local, tau_in).refuted


class TestSoundness:
    def test_refuted_instances_fail_to_compile(self, cube3):
        for case in (
            two_on_one_link(cube3, [1280, 1280]),
            fan_out_of_node_zero(cube3, 768),
        ):
            with pytest.raises(SchedulingError):
                compile_schedule(*case)

    def test_every_witness_survives_independent_replay(
        self, refuted_instance, cube3
    ):
        cases = [
            refuted_instance,
            two_on_one_link(cube3, [1280, 1280]),
            fan_out_of_node_zero(cube3, 768),
        ]
        for timing, topo, allocation, tau_in in cases:
            diagnosis = diagnose_instance(timing, topo, allocation, tau_in)
            assert diagnosis.refuted
            for refutation in diagnosis.instance_refutations:
                problems = verify_refutation(
                    timing, topo, allocation, tau_in, refutation
                )
                assert problems == []

    def test_forged_cut_exclusive_claims_do_not_replay(self, cube3):
        import dataclasses

        case = fan_out_of_node_zero(cube3, 768)
        (genuine,) = diagnose_instance(*case).refutations
        assert verify_refutation(*case, genuine) == []
        # Three rivals on a three-link star is no overload ...
        fewer = dataclasses.replace(genuine, messages=genuine.messages[:3])
        assert any(
            "overload claim false" in p
            for p in verify_refutation(*case, fewer)
        )
        # ... and at half a window each, any two could share a link.
        halves = fan_out_of_node_zero(cube3, 640)
        assert any(
            "can share a link" in p
            for p in verify_refutation(*halves, genuine)
        )

    def test_instance_refutations_are_instance_scoped(self, refuted_instance):
        timing, topo, allocation, tau_in = refuted_instance
        diagnosis = diagnose_instance(timing, topo, allocation, tau_in)
        for refutation in diagnosis.instance_refutations:
            assert refutation.scope == SCOPE_INSTANCE


class TestForcedLinks:
    def test_adjacent_pair_forced(self, cube3):
        assert forced_links(cube3, 1, 3) == ((1, 3),)

    def test_multi_path_pair_unforced(self, cube3):
        # 0 -> 3 has two minimal paths on the 3-cube; nothing is forced.
        assert forced_links(cube3, 0, 3) == ()


class TestSerialization:
    def test_diagnosis_round_trips(self, refuted_instance):
        timing, topo, allocation, tau_in = refuted_instance
        diagnosis = diagnose_instance(timing, topo, allocation, tau_in)
        clone = Diagnosis.from_dict(diagnosis.to_dict())
        assert clone.refuted == diagnosis.refuted
        assert clone.refutations == diagnosis.refutations
        assert clone.tau_in == diagnosis.tau_in


class TestCaching:
    def test_diagnosis_cache_round_trip(self, refuted_instance):
        timing, topo, allocation, tau_in = refuted_instance
        cache = ScheduleCache()
        first = diagnose_instance(
            timing, topo, allocation, tau_in, cache=cache
        )
        assert cache.stats.stores == 1
        second = diagnose_instance(
            timing, topo, allocation, tau_in, cache=cache
        )
        assert cache.stats.hits == 1
        assert second.refutations == first.refutations

    def test_key_independent_of_config_but_not_of_instance(
        self, refuted_instance, dvb_setup_128
    ):
        timing, topo, allocation, tau_in = refuted_instance
        key = diagnosis_cache_key(timing, topo, allocation, tau_in)
        assert key == diagnosis_cache_key(timing, topo, allocation, tau_in)
        assert key != diagnosis_cache_key(
            timing, topo, allocation, tau_in * 2
        )
        s = dvb_setup_128
        assert key != diagnosis_cache_key(
            s.timing, s.topology, s.allocation, tau_in
        )

    def test_diagnosis_entry_never_replays_as_schedule(self, refuted_instance):
        timing, topo, allocation, tau_in = refuted_instance
        cache = ScheduleCache()
        key = diagnosis_cache_key(timing, topo, allocation, tau_in)
        diagnose_instance(timing, topo, allocation, tau_in, cache=cache)
        # Fetching the diagnosis key through the schedule interface is a
        # miss, not a crash or a bogus schedule.
        assert cache.fetch(key, topology=topo) is None


class TestCli:
    def test_diagnose_text_refuted_exits_nonzero(self, capsys):
        code = main([
            "diagnose", "--topology", "hypercube6", "--models", "16",
            "--load", "1.0",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "refuted" in out
        assert "cut-overload" in out

    def test_diagnose_json_payload(self, capsys):
        code = main([
            "diagnose", "--topology", "hypercube6", "--models", "16",
            "--load", "1.0", "--json", "--wr",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["diagnosis"]["refuted"] is True
        assert payload["diagnosis"]["refutations"]
        assert "wormhole" in payload
        assert payload["instance"]["load"] == 1.0

    def test_diagnose_feasible_point_exits_zero(self, capsys):
        code = main([
            "diagnose", "--topology", "hypercube6", "--models", "5",
            "--bandwidth", "128", "--load", "0.5", "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["diagnosis"]["refuted"] is False
