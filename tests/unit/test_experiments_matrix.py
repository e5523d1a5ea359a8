"""Unit tests for the feasibility-matrix driver."""

import pytest

from repro.cache import ScheduleCache
from repro.core.compiler import CompilerConfig
from repro.experiments import (
    format_matrix,
    format_matrix_result,
    run_feasibility_matrix,
)
from repro.mapping import bfs_allocation
from repro.tfg.synth import chain_tfg

SMALL_CONFIG = CompilerConfig(max_paths=12, max_restarts=1, retries=0)


@pytest.fixture()
def small_matrix(cube3):
    tfg = chain_tfg(4, 400, 1280)
    return run_feasibility_matrix(
        tfg, [cube3], [64.0, 128.0], [0.5, 1.0], config=SMALL_CONFIG
    ).rows


class TestFeasibilityMatrix:
    def test_one_row_per_configuration(self, small_matrix):
        assert len(small_matrix) == 2
        for row in small_matrix:
            assert len(row.verdicts) == 2
            assert row.loads == (0.5, 1.0)

    def test_verdict_codes(self, small_matrix):
        for row in small_matrix:
            for verdict in row.verdicts:
                assert verdict in {"OK", "U>1", "ALO", "SCH", "ERR"}

    def test_feasible_count(self, small_matrix):
        for row in small_matrix:
            assert row.feasible_count == sum(
                1 for verdict in row.verdicts if verdict == "OK"
            )

    def test_bandwidth_ordering(self, small_matrix):
        # At B=64 every chain message is no-slack and the wrapped windows
        # of m1 and m2 collide on link (2,3): genuinely infeasible.  At
        # B=128 the slack makes every point schedulable.
        by_bandwidth = {row.bandwidth: row for row in small_matrix}
        assert by_bandwidth[128.0].feasible_count == 2
        assert by_bandwidth[128.0].feasible_count >= (
            by_bandwidth[64.0].feasible_count
        )

    def test_custom_allocator(self, cube3):
        tfg = chain_tfg(4, 400, 1280)
        result = run_feasibility_matrix(
            tfg, [cube3], [128.0], [1.0],
            allocation=lambda t, topo: bfs_allocation(t, topo),
        )
        assert result.rows[0].verdicts == ("OK",)


class TestRunFeasibilityMatrix:
    def test_serial_run_defaults(self, cube3):
        tfg = chain_tfg(4, 400, 1280)
        args = (tfg, [cube3], [64.0, 128.0], [0.5, 1.0])
        result = run_feasibility_matrix(*args, config=SMALL_CONFIG)
        assert result.jobs == 1
        assert result.cache_stats is None
        assert result.elapsed_s > 0.0

    def test_warm_cache_rerun_is_all_hits(self, cube3, tmp_path):
        tfg = chain_tfg(4, 400, 1280)
        args = (tfg, [cube3], [64.0, 128.0], [0.5, 1.0])
        cold = run_feasibility_matrix(
            *args, config=SMALL_CONFIG, cache=tmp_path
        )
        warm = run_feasibility_matrix(
            *args, config=SMALL_CONFIG, cache=str(tmp_path)
        )
        assert cold.cache_stats["misses"] == 4
        assert warm.cache_stats["hits"] == 4
        assert warm.hit_rate == 1.0
        # Infeasible points hit too (negative entries), and verdicts
        # are bit-identical to the cold run.
        assert warm.rows == cold.rows

    def test_parallel_matches_serial_verdicts(self, cube3, tmp_path):
        tfg = chain_tfg(4, 400, 1280)
        args = (tfg, [cube3], [64.0, 128.0], [0.5, 1.0])
        serial = run_feasibility_matrix(*args, config=SMALL_CONFIG)
        parallel = run_feasibility_matrix(
            *args, config=SMALL_CONFIG, jobs=2, cache=tmp_path
        )
        assert parallel.rows == serial.rows
        assert parallel.jobs == 2
        assert parallel.cache_stats["stores"] == 4

    def test_parallel_rejects_in_process_cache(self, cube3):
        tfg = chain_tfg(4, 400, 1280)
        with pytest.raises(ValueError, match="directory"):
            run_feasibility_matrix(
                tfg, [cube3], [64.0], [0.5], config=SMALL_CONFIG,
                jobs=2, cache=ScheduleCache(),
            )

    def test_format_matrix_result_reports_stats(self, cube3, tmp_path):
        tfg = chain_tfg(4, 400, 1280)
        result = run_feasibility_matrix(
            tfg, [cube3], [128.0], [1.0], config=SMALL_CONFIG,
            cache=tmp_path,
        )
        text = format_matrix_result(result)
        assert "SR feasibility matrix" in text
        assert "jobs=1" in text
        assert "hit rate" in text


class TestAnalyzeColumn:
    """ISSUE acceptance: with ``analyze=True`` every feasible matrix
    point must come back analyzer-clean (verdict stays ``OK``), and a
    flagged point is reported as ``CHK`` rather than silently ``OK``."""

    def test_feasible_points_stay_ok_under_analysis(self, cube3):
        tfg = chain_tfg(4, 400, 1280)
        args = (tfg, [cube3], [64.0, 128.0], [0.5, 1.0])
        plain = run_feasibility_matrix(*args, config=SMALL_CONFIG)
        analyzed = run_feasibility_matrix(
            *args, config=SMALL_CONFIG, analyze=True
        )
        assert analyzed.rows == plain.rows
        assert "CHK" not in {
            v for row in analyzed.rows for v in row.verdicts
        }
        assert any(
            v == "OK" for row in analyzed.rows for v in row.verdicts
        )

    def test_flagged_schedule_reports_chk(self, cube3, monkeypatch):
        import repro.check.analyzer as analyzer_module
        from repro.check.analyzer import ConformanceReport, Finding

        def flag_everything(schedule, topology, **kwargs):
            return ConformanceReport(
                tau_in=schedule.tau_in,
                findings=(
                    Finding(
                        severity="error", code="link-overlap",
                        detail="forced", message="m0",
                    ),
                ),
                checks=("link",),
            )

        monkeypatch.setattr(
            analyzer_module, "analyze_schedule", flag_everything
        )
        tfg = chain_tfg(4, 400, 1280)
        result = run_feasibility_matrix(
            tfg, [cube3], [128.0], [1.0],
            config=SMALL_CONFIG, analyze=True,
        )
        assert result.rows[0].verdicts == ("CHK",)

    def test_analysis_off_by_default(self, cube3, monkeypatch):
        import repro.check.analyzer as analyzer_module

        def explode(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("analyzer invoked without analyze=True")

        monkeypatch.setattr(analyzer_module, "analyze_schedule", explode)
        tfg = chain_tfg(4, 400, 1280)
        result = run_feasibility_matrix(
            tfg, [cube3], [128.0], [1.0], config=SMALL_CONFIG
        )
        assert result.rows[0].verdicts == ("OK",)


class TestFormatMatrix:
    def test_renders_table(self, small_matrix):
        text = format_matrix(small_matrix)
        assert "SR feasibility matrix" in text
        assert "0.50" in text and "1.00" in text
        assert text.count("\n") >= 3

    def test_empty(self):
        assert "(empty matrix)" == format_matrix([])
