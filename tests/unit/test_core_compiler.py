"""Unit tests for the end-to-end scheduled-routing compiler."""

import pytest

from repro.core.compiler import (
    CompilerConfig,
    compile_schedule,
    routed_and_local_messages,
)
from repro.errors import SchedulingError, UtilizationExceededError
from repro.tfg import TFGTiming
from repro.tfg.graph import build_tfg
from repro.tfg.synth import chain_tfg
from tests.conftest import pins


class TestRoutedLocalSplit:
    def test_colocated_messages_are_local(self, cube3, tiny_tfg):
        timing = TFGTiming(tiny_tfg, 128.0, speeds=40.0)
        allocation = {"t0": 0, "t1": 0, "t2": 5}
        routed, local = routed_and_local_messages(timing, allocation)
        assert routed == ["m1"]
        assert local == ["m0"]


class TestCompile:
    def test_small_chain_compiles(self, cube3):
        timing = TFGTiming(chain_tfg(4, 400, 1280), 128.0, speeds=40.0)
        allocation = {"t0": 0, "t1": 1, "t2": 3, "t3": 7}
        routing = compile_schedule(timing, cube3, allocation, tau_in=40.0)
        assert routing.utilization.feasible
        assert routing.schedule.num_commands > 0
        assert set(routing.paths) == {"m0", "m1", "m2"}

    def test_local_messages_excluded_from_schedule(self, cube3, tiny_tfg):
        timing = TFGTiming(tiny_tfg, 128.0, speeds=40.0)
        allocation = {"t0": 0, "t1": 0, "t2": 5}
        routing = compile_schedule(timing, cube3, allocation, tau_in=50.0)
        assert routing.local_messages == ("m0",)
        assert "m0" not in routing.schedule.slots
        assert "m1" in routing.schedule.slots

    def test_overload_raises_utilization_error(self, cube3):
        # Two no-slack messages forced over the single link (0,1).
        tfg = build_tfg(
            "clash",
            [("a", 400), ("b", 400), ("c", 400), ("d", 400)],
            [("m1", "a", "b", 1280), ("m2", "c", "d", 1280)],
        )
        timing = TFGTiming(tfg, 128.0, speeds=40.0)
        allocation = {"a": 0, "b": 1, "c": 0, "d": 1}
        with pytest.raises(UtilizationExceededError) as info:
            compile_schedule(timing, cube3, allocation, tau_in=100.0)
        assert info.value.peak > 1.0
        assert info.value.stage == "utilization"

    def test_lsd_only_config(self, cube3):
        timing = TFGTiming(chain_tfg(4, 400, 1280), 128.0, speeds=40.0)
        allocation = {"t0": 0, "t1": 1, "t2": 3, "t3": 7}
        config = CompilerConfig(use_assign_paths=False)
        routing = compile_schedule(timing, cube3, allocation, 40.0, config)
        assert routing.attempts == 1
        # LSD->MSD: each chain message between adjacent nodes, direct link.
        assert routing.paths["m0"] == (0, 1)

    def test_schedule_covers_every_routed_message(self, dvb_setup_128):
        setup = dvb_setup_128
        routing = compile_schedule(
            setup.timing, setup.topology, setup.allocation,
            setup.tau_in_for_load(0.6),
        )
        routed, local = routed_and_local_messages(setup.timing, setup.allocation)
        assert sorted(routing.schedule.slots) == sorted(routed)
        for name in routed:
            total = sum(s.duration for s in routing.schedule.slots[name])
            assert total == pytest.approx(setup.timing.xmit_time(name))

    def test_deterministic_per_seed(self, dvb_setup_128):
        setup = dvb_setup_128
        tau_in = setup.tau_in_for_load(0.6)
        a = compile_schedule(setup.timing, setup.topology, setup.allocation,
                             tau_in, CompilerConfig(seed=3))
        b = compile_schedule(setup.timing, setup.topology, setup.allocation,
                             tau_in, CompilerConfig(seed=3))
        assert a.paths == b.paths
        assert a.utilization.peak == b.utilization.peak

    def test_sync_margin_tightens(self, dvb_setup_128):
        """The concluding-remarks extension: a CP synchronization margin
        consumes slack and eventually breaks schedulability."""
        setup = dvb_setup_128
        tau_in = setup.tau_in_for_load(1.0)
        compile_schedule(setup.timing, setup.topology, setup.allocation,
                         tau_in, CompilerConfig(sync_margin=0.0))
        # At maximum load the longest messages are no-slack; any margin
        # overflows their windows.
        with pytest.raises(SchedulingError):
            compile_schedule(
                setup.timing, setup.topology, setup.allocation, tau_in,
                CompilerConfig(sync_margin=30.0),
            )

    @pytest.mark.parametrize(
        "margin", [-1.0, float("nan"), float("inf")], ids=str
    )
    def test_bad_sync_margin_is_refused_by_the_config(self, margin):
        with pytest.raises(ValueError, match="sync margin must be"):
            CompilerConfig(sync_margin=margin)

    def test_repr(self, cube3):
        timing = TFGTiming(chain_tfg(3, 400, 1280), 128.0, speeds=40.0)
        routing = compile_schedule(
            timing, cube3, {"t0": 0, "t1": 1, "t2": 3}, tau_in=40.0
        )
        assert "ScheduledRouting" in repr(routing)

    def test_lp_counts_are_pinned(self):
        """LP iterations, solves and failures of a HiGHS compile equal
        tests/data/pins.json: a solve that creeps back (or simplex work
        that moves) names itself."""
        pytest.importorskip("scipy")
        counts = pins().produce("solvers.lp_counts")
        assert counts == pins().pinned("solvers.lp_counts")

    def test_lp_trace_is_pinned(self):
        """Every solution the HiGHS backend returns over the seed-0
        ``matrix_cold`` ops, in call order, equals tests/data/pins.json:
        a change to how an LP reaches HiGHS that moves one bit of one
        primal, dual, objective or iteration count names itself."""
        pytest.importorskip("scipy")
        trace = pins().produce("solvers.lp_trace")
        assert trace == pins().pinned("solvers.lp_trace")
