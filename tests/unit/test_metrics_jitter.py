"""Unit tests for jitter metrics.

The lateness/earliness figures anchor the ideal grid by best fit over
the whole window (``a = mean(c_k - k * tau_in)``).  These tests pin
both halves of that contract: a pure phase offset is *not* jitter, a
uniform drift *is*.
"""

import pytest

from repro.metrics.jitter import jitter_report


class TestJitterReport:
    def test_perfect_stream(self):
        completions = [100.0, 150.0, 200.0, 250.0]
        report = jitter_report(completions, tau_in=50.0)
        assert report.peak_to_peak == 0.0
        assert report.rms == 0.0
        assert report.worst_lateness == 0.0
        assert report.worst_earliness == 0.0
        assert report.is_jitter_free

    def test_phase_offset_is_not_jitter(self):
        # Same perfect stream started mid-frame: the anchor absorbs the
        # offset entirely.
        completions = [7.25, 57.25, 107.25, 157.25]
        report = jitter_report(completions, tau_in=50.0)
        assert report.worst_lateness == pytest.approx(0.0, abs=1e-12)
        assert report.worst_earliness == pytest.approx(0.0, abs=1e-12)
        assert report.is_jitter_free

    def test_alternating_stream(self):
        # The CLAIM3 pattern: intervals 32, 10, 32, 10 at tau_in = 21.
        # Deviations from the k*21 grid are [0, 11, 0, 11, 0]; the
        # best-fit anchor is their mean 4.4, so the late outputs are
        # 6.6 past the ideal grid and the on-grid ones 4.4 early.
        completions = [50.0, 82.0, 92.0, 124.0, 134.0]
        report = jitter_report(completions, tau_in=21.0)
        assert report.peak_to_peak == pytest.approx(22.0)
        assert report.rms == pytest.approx(11.0)
        assert report.worst_lateness == pytest.approx(6.6)
        assert report.worst_earliness == pytest.approx(4.4)
        assert not report.is_jitter_free

    def test_uniform_drift_is_lateness(self):
        # Regression: every interval is tau_in/2, so the stream slides
        # ever earlier relative to the real-time grid.  The old
        # first-completion anchor (with lateness clamped at zero)
        # reported 0 for this stream; best-fit anchoring exposes it.
        completions = [0.0, 10.0, 20.0, 30.0]
        report = jitter_report(completions, tau_in=20.0)
        assert report.worst_lateness == pytest.approx(15.0)
        assert report.worst_earliness == pytest.approx(15.0)
        assert not report.is_jitter_free

    def test_uniform_late_drift_is_symmetric(self):
        # Drifting late reports the same magnitudes as drifting early:
        # the deviations are mirrored around the best-fit anchor.
        completions = [0.0, 30.0, 60.0, 90.0]
        report = jitter_report(completions, tau_in=20.0)
        assert report.worst_lateness == pytest.approx(15.0)
        assert report.worst_earliness == pytest.approx(15.0)
        assert report.peak_to_peak == 0.0
        assert not report.is_jitter_free

    def test_validation(self):
        with pytest.raises(ValueError):
            jitter_report([1.0, 2.0], tau_in=1.0)
        with pytest.raises(ValueError):
            jitter_report([1.0, 2.0, 3.0], tau_in=0.0)


class TestRunResultIntegration:
    def test_sr_run_is_jitter_free(self, cube3):
        from repro.core.compiler import compile_schedule
        from repro.core.executor import ScheduledRoutingExecutor
        from repro.tfg import TFGTiming
        from repro.tfg.synth import chain_tfg

        timing = TFGTiming(chain_tfg(3, 400, 1280), 128.0, speeds=40.0)
        allocation = {"t0": 0, "t1": 1, "t2": 3}
        routing = compile_schedule(timing, cube3, allocation, tau_in=30.0)
        result = ScheduledRoutingExecutor(
            routing, timing, cube3, allocation
        ).run(invocations=12, warmup=2)
        assert result.jitter().is_jitter_free

    def test_wr_oi_run_has_jitter(self, cube3):
        from repro.tfg import TFGTiming
        from repro.tfg.graph import build_tfg
        from repro.wormhole import WormholeSimulator

        tfg = build_tfg(
            "claim3",
            [("t0", 400), ("t1", 400), ("t2", 400)],
            [("M1", "t0", "t1", 1280), ("M2", "t1", "t2", 1280)],
        )
        timing = TFGTiming(tfg, 128.0, speeds=40.0)
        result = WormholeSimulator(
            timing, cube3, {"t0": 0, "t1": 3, "t2": 1}
        ).run(tau_in=21.0, invocations=30, warmup=6)
        report = result.jitter()
        assert report.peak_to_peak > 10.0
        assert not report.is_jitter_free
