"""Unit tests of the survivability experiment's outage accounting."""

import math

import pytest

from repro.faults.compare import fault_recovery_experiment


def _without_latency(report) -> list[str]:
    """``describe()`` minus its one measured line, the repair latency."""
    return [
        line for line in report.describe().splitlines()
        if not line.startswith("repair latency")
    ]


@pytest.fixture(scope="module")
def two_runs(dvb_setup_128):
    return [
        fault_recovery_experiment(
            dvb_setup_128, 0.5, seed=0, invocations=16, warmup=4
        )
        for _ in range(2)
    ]


class TestOutageWindow:
    def test_one_seed_gives_one_report(self, two_runs):
        """The wall clock of the repair reaches no reported number but its
        own latency line."""
        first, second = two_runs
        assert first.outage == second.outage
        assert _without_latency(first) == _without_latency(second)

    def test_window_ends_at_the_first_frame_start_after_detection(
        self, two_runs
    ):
        report = two_runs[0]
        assert report.detection_time is not None
        start, end = report.outage.window
        frame = math.floor(report.detection_time / report.tau_in) + 1
        assert end == frame * report.tau_in
        assert start <= report.detection_time < end
        assert report.outage.num_missed_deliveries >= 1
