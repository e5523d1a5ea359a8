"""Unit tests for TFG timing analysis (ASAP schedule, critical path)."""

import pytest

from repro.errors import TFGError
from repro.tfg import TFGTiming, speeds_for_ratio
from repro.tfg.graph import build_tfg


class TestElementaryTimes:
    def test_exec_and_xmit(self, tiny_tfg):
        timing = TFGTiming(tiny_tfg, bandwidth=128.0, speeds=40.0)
        assert timing.exec_time("t0") == 10.0      # 400 ops / 40 ops/us
        assert timing.xmit_time("m0") == 10.0      # 1280 B / 128 B/us
        assert timing.tau_c == 10.0
        assert timing.tau_m == 10.0

    def test_per_task_speeds(self, tiny_tfg):
        speeds = {"t0": 40.0, "t1": 20.0, "t2": 10.0}
        timing = TFGTiming(tiny_tfg, bandwidth=128.0, speeds=speeds)
        assert timing.exec_time("t2") == 40.0
        assert timing.tau_c == 40.0
        assert timing.speed("t1") == 20.0

    def test_missing_speed_rejected(self, tiny_tfg):
        with pytest.raises(TFGError):
            TFGTiming(tiny_tfg, 128.0, speeds={"t0": 1.0})

    def test_nonpositive_inputs_rejected(self, tiny_tfg):
        with pytest.raises(TFGError):
            TFGTiming(tiny_tfg, bandwidth=0.0)
        with pytest.raises(TFGError):
            TFGTiming(tiny_tfg, 128.0, speeds=0.0)
        with pytest.raises(TFGError):
            TFGTiming(tiny_tfg, 128.0, speeds={"t0": -1, "t1": 1, "t2": 1})

    def test_window_must_cover_longest_message(self, tiny_tfg):
        with pytest.raises(TFGError):
            TFGTiming(tiny_tfg, 128.0, speeds=40.0, message_window=5.0)


class TestAsapSchedule:
    def test_chain_layout(self, tiny_timing):
        # Chain of 10us tasks with 10us windows: stages at 0/20/40.
        schedule = tiny_timing.asap_schedule()
        assert schedule["t0"] == (0.0, 10.0)
        assert schedule["t1"] == (20.0, 30.0)
        assert schedule["t2"] == (40.0, 50.0)
        assert tiny_timing.asap_latency() == 50.0

    def test_join_waits_for_slowest(self, diamond_tfg):
        timing = TFGTiming(
            diamond_tfg, bandwidth=128.0,
            speeds={"s": 40.0, "m1": 10.0, "m2": 40.0, "t": 40.0},
        )
        schedule = timing.asap_schedule()
        window = timing.message_window
        # m1 is the slow branch (40us exec).
        assert schedule["t"][0] == schedule["m1"][1] + window

    def test_inputs_start_at_zero(self, fan4_tfg):
        timing = TFGTiming(fan4_tfg, 128.0, speeds=40.0)
        assert timing.asap_schedule()["src"][0] == 0.0

    def test_custom_window_stretches_schedule(self, tiny_tfg):
        tight = TFGTiming(tiny_tfg, 128.0, 40.0, message_window=10.0)
        loose = TFGTiming(tiny_tfg, 128.0, 40.0, message_window=25.0)
        assert loose.asap_latency() > tight.asap_latency()
        assert loose.asap_latency() == 10 + 25 + 10 + 25 + 10


class TestCriticalPath:
    def test_chain_critical_path(self, tiny_timing):
        cp = tiny_timing.critical_path()
        assert cp.elements == ("t0", "m0", "t1", "m1", "t2")
        assert cp.length == 10 + 10 + 10 + 10 + 10

    def test_critical_path_uses_actual_message_times(self, diamond_tfg):
        timing = TFGTiming(diamond_tfg, bandwidth=128.0, speeds=40.0)
        cp = timing.critical_path()
        # b/d (1280 B = 10us) dominate a/c (640 B = 5us).
        assert cp.elements == ("s", "b", "m2", "d", "t")
        assert cp.length == 10 + 10 + 10 + 10 + 10

    def test_asap_latency_at_least_critical_path(self, dvb_setup_128):
        timing = dvb_setup_128.timing
        assert timing.asap_latency() >= timing.critical_path().length

    def test_single_task_tfg(self):
        tfg = build_tfg("solo", [("only", 100)], [])
        timing = TFGTiming(tfg, 64.0, speeds=10.0)
        cp = timing.critical_path()
        assert cp.elements == ("only",)
        assert cp.length == 10.0
        assert timing.tau_m == 0.0


class TestSpeedsForRatio:
    def test_paper_calibration(self, dvb5):
        speeds = speeds_for_ratio(dvb5, bandwidth=64.0, ratio=1.0)
        timing = TFGTiming(dvb5, 64.0, speeds)
        # Every task takes tau_m; tau_m == tau_c == 50us at B=64.
        assert timing.tau_m == pytest.approx(50.0)
        assert timing.tau_c == pytest.approx(50.0)
        for task in dvb5.tasks:
            assert timing.exec_time(task.name) == pytest.approx(50.0)

    def test_double_bandwidth_halves_ratio(self, dvb5):
        speeds = speeds_for_ratio(dvb5, bandwidth=64.0, ratio=1.0)
        timing = TFGTiming(dvb5, 128.0, speeds)
        assert timing.tau_m / timing.tau_c == pytest.approx(0.5)

    def test_ratio_validation(self, dvb5):
        with pytest.raises(TFGError):
            speeds_for_ratio(dvb5, 64.0, ratio=0.0)

    def test_needs_messages(self):
        tfg = build_tfg("solo", [("only", 100)], [])
        with pytest.raises(TFGError):
            speeds_for_ratio(tfg, 64.0, 1.0)
