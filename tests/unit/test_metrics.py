"""Unit tests for normalized metrics and spike statistics."""

import pytest

from repro.metrics import (
    SpikeStats,
    has_output_inconsistency,
    load_sweep,
    normalized_latency_stats,
    normalized_throughput_stats,
    output_intervals,
)
from repro.report import format_spike, format_table


class TestSpikeStats:
    def test_from_series(self):
        stats = SpikeStats.from_series([2.0, 4.0, 3.0])
        assert stats.minimum == 2.0
        assert stats.maximum == 4.0
        assert stats.mean == 3.0
        assert stats.spread == 2.0

    def test_constant_detection(self):
        stats = SpikeStats.from_series([5.0, 5.0, 5.0])
        assert stats.is_constant(1e-9)
        assert SpikeStats.from_series([5.0, 5.1]).is_constant(0.2)
        assert not SpikeStats.from_series([5.0, 5.1]).is_constant(0.01)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SpikeStats.from_series([])


class TestOutputIntervals:
    def test_differences(self):
        assert output_intervals([10.0, 30.0, 45.0]) == [20.0, 15.0]

    def test_oi_detection(self):
        assert not has_output_inconsistency([100.0, 100.0], tau_in=100.0)
        assert has_output_inconsistency([100.0, 150.0], tau_in=100.0)
        # Constant but != tau_in is still inconsistent per Eq. 1.
        assert has_output_inconsistency([50.0, 50.0], tau_in=100.0)

    def test_oi_tolerance_absorbs_float_noise(self):
        intervals = [100.0 + 1e-10, 100.0 - 1e-10]
        assert not has_output_inconsistency(intervals, tau_in=100.0)


class TestNormalization:
    def test_throughput_inverts_extremes(self):
        stats = normalized_throughput_stats([50.0, 100.0, 200.0], tau_in=100.0)
        # Longest interval (200) gives the minimum throughput.
        assert stats.minimum == 0.5
        assert stats.maximum == 2.0
        assert stats.mean == pytest.approx(100.0 / (350.0 / 3.0))

    def test_consistent_run_normalizes_to_one(self):
        stats = normalized_throughput_stats([80.0] * 5, tau_in=80.0)
        assert stats.minimum == stats.maximum == 1.0

    def test_latency_normalization(self):
        stats = normalized_latency_stats([500.0, 600.0], critical_path_length=500.0)
        assert stats.minimum == 1.0
        assert stats.maximum == pytest.approx(1.2)

    def test_latency_needs_positive_denominator(self):
        with pytest.raises(ValueError):
            normalized_latency_stats([1.0], critical_path_length=0.0)


class TestLoadSweep:
    def test_paper_defaults(self):
        points = load_sweep()
        assert len(points) == 12
        assert points[0] == 0.2
        assert points[-1] == 1.0
        assert points == sorted(points)

    def test_validation(self):
        with pytest.raises(ValueError):
            load_sweep(points=1)


class TestReport:
    def test_format_spike_collapses_constant(self):
        assert format_spike(SpikeStats(1.0, 1.0, 1.0)) == "1.000"
        assert format_spike(SpikeStats(0.5, 1.0, 2.0)) == "0.500/1.000/2.000"

    def test_format_table_alignment(self):
        text = format_table(("col", "x"), [("a", 1), ("bbbb", 22)])
        lines = text.splitlines()
        assert lines[0].startswith("col")
        assert "-+-" in lines[1]
        assert len(lines) == 4

    def test_format_table_title_and_row_check(self):
        text = format_table(("a",), [(1,)], title="T")
        assert text.splitlines()[0] == "T"
        with pytest.raises(ValueError):
            format_table(("a", "b"), [(1,)])
