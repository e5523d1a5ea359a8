"""Unit tests for message time bounds and the interval decomposition."""

import numpy as np
import pytest

from repro.core.timebounds import MessageTimeBounds, compute_time_bounds
from repro.errors import SchedulingError
from repro.tfg import TFGTiming
from repro.tfg.synth import chain_tfg


@pytest.fixture()
def chain_timing():
    """3-task chain, 10us tasks, 10us messages, 10us windows."""
    return TFGTiming(chain_tfg(3, ops=400, size_bytes=1280), 128.0, speeds=40.0)


class TestMessageTimeBounds:
    def test_slack_accounting(self):
        bound = MessageTimeBounds(
            "m", release=10.0, deadline=30.0, duration=15.0,
            windows=((10.0, 30.0),),
        )
        assert bound.active_length == 20.0
        assert bound.slack == 5.0
        assert not bound.no_slack

    def test_no_slack(self):
        bound = MessageTimeBounds(
            "m", 10.0, 30.0, 20.0, windows=((10.0, 30.0),)
        )
        assert bound.no_slack

    def test_wrapped_window_active_length(self):
        bound = MessageTimeBounds(
            "m", release=80.0, deadline=30.0, duration=20.0,
            windows=((0.0, 30.0), (80.0, 100.0)),
        )
        assert bound.active_length == 50.0
        assert bound.contains(85.0, 95.0)
        assert bound.contains(0.0, 30.0)
        assert not bound.contains(40.0, 50.0)
        assert not bound.contains(25.0, 35.0)  # straddles the gap


class TestComputeTimeBounds:
    def test_releases_follow_asap(self, chain_timing):
        # ASAP finishes: t0 at 10, t1 at 30; tau_in 100 -> no wrapping.
        bounds = compute_time_bounds(chain_timing, tau_in=100.0)
        assert bounds.bounds["m0"].release == 10.0
        assert bounds.bounds["m0"].deadline == 20.0  # + window (tau_c = 10)
        assert bounds.bounds["m1"].release == 30.0
        assert bounds.bounds["m1"].windows == ((30.0, 40.0),)

    def test_wrapping_at_tight_period(self, chain_timing):
        # tau_in = 25: m1 released at 30 -> wraps to 5.
        bounds = compute_time_bounds(chain_timing, tau_in=25.0)
        assert bounds.bounds["m1"].release == 5.0
        assert bounds.bounds["m1"].windows == ((5.0, 15.0),)

    def test_window_wrapping_across_frame_edge(self, chain_timing):
        # tau_in = 12: m0 released at 10, window 10 -> wraps to [0,8]+[10,12].
        bounds = compute_time_bounds(chain_timing, tau_in=12.0)
        windows = bounds.bounds["m0"].windows
        assert windows == ((0.0, 8.0), (10.0, 12.0))
        assert bounds.bounds["m0"].active_length == pytest.approx(10.0)

    def test_release_at_frame_edge(self, chain_timing):
        # tau_in = 10 (= tau_c): t0 finishes at 10 -> release wraps to 0.
        bounds = compute_time_bounds(chain_timing, tau_in=10.0)
        assert bounds.bounds["m0"].release == 0.0
        assert bounds.bounds["m0"].windows == ((0.0, 10.0),)
        assert bounds.bounds["m0"].no_slack

    def test_rejects_period_below_tau_c(self, chain_timing):
        with pytest.raises(SchedulingError):
            compute_time_bounds(chain_timing, tau_in=5.0)

    def test_routed_subset_respected(self, chain_timing):
        bounds = compute_time_bounds(chain_timing, 100.0, ["m1"])
        assert bounds.order == ("m1",)

    def test_sync_margin_inflates_duration(self, chain_timing):
        plain = compute_time_bounds(chain_timing, 100.0)
        padded = compute_time_bounds(chain_timing, 100.0, extra_duration=0.0)
        assert plain.bounds["m0"].duration == padded.bounds["m0"].duration
        # A margin equal to the slack makes the message no-slack... but m0
        # has zero slack already (duration 10 == window 10), so any margin
        # must be rejected.
        with pytest.raises(SchedulingError):
            compute_time_bounds(chain_timing, 100.0, extra_duration=1.0)

    def test_negative_margin_rejected(self, chain_timing):
        """A bad margin is an input error, not an infeasible instance."""
        with pytest.raises(ValueError):
            compute_time_bounds(chain_timing, 100.0, extra_duration=-1.0)

    @pytest.mark.parametrize("margin", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_margin_rejected(self, chain_timing, margin):
        """NaN passes ``margin < 0``; it and +inf must still be refused up
        front, like a negative margin, not turn every peak into NaN."""
        with pytest.raises(ValueError, match="sync margin must be"):
            compute_time_bounds(chain_timing, 100.0, extra_duration=margin)


class TestIntervalSet:
    def test_boundaries_cover_frame(self, chain_timing):
        bounds = compute_time_bounds(chain_timing, tau_in=100.0)
        b = bounds.intervals.boundaries
        assert b[0] == 0.0
        assert b[-1] == 100.0
        assert list(b) == sorted(set(b))
        assert sum(bounds.intervals.lengths) == pytest.approx(100.0)

    def test_window_endpoints_are_boundaries(self, chain_timing):
        bounds = compute_time_bounds(chain_timing, tau_in=100.0)
        b = set(bounds.intervals.boundaries)
        for mb in bounds.bounds.values():
            for start, end in mb.windows:
                assert start in b
                assert end in b

    def test_interval_lookup(self, chain_timing):
        bounds = compute_time_bounds(chain_timing, tau_in=100.0)
        k = bounds.intervals.count
        for i in range(k):
            start, end = bounds.intervals.interval(i)
            assert end - start == pytest.approx(bounds.intervals.lengths[i])


class TestActivityMatrix:
    def test_activity_matches_windows(self, chain_timing):
        bounds = compute_time_bounds(chain_timing, tau_in=100.0)
        for i, name in enumerate(bounds.order):
            mb = bounds.bounds[name]
            for k in range(bounds.intervals.count):
                start, end = bounds.intervals.interval(k)
                mid = (start + end) / 2
                inside = any(ws <= mid <= we for ws, we in mb.windows)
                assert bounds.activity[i, k] == inside

    def test_active_interval_lengths_sum_to_window(self, chain_timing):
        for tau_in in (10.0, 12.0, 25.0, 100.0):
            bounds = compute_time_bounds(chain_timing, tau_in=tau_in)
            lengths = np.asarray(bounds.intervals.lengths)
            for i, name in enumerate(bounds.order):
                total = float(lengths[bounds.activity[i]].sum())
                assert total == pytest.approx(
                    bounds.bounds[name].active_length
                )

    def test_active_intervals_helper(self, chain_timing):
        bounds = compute_time_bounds(chain_timing, tau_in=100.0)
        ks = bounds.active_intervals("m0")
        assert all(bounds.activity[bounds.index["m0"], k] for k in ks)
