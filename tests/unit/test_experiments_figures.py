"""Unit tests for the figure drivers' edge paths."""

from repro.core.compiler import CompilerConfig
from repro.experiments import pipeline_comparison, standard_setup
from repro.experiments.figures import PipelinePoint
from repro.metrics import SpikeStats
from repro.tfg.graph import build_tfg
from repro.topology import Torus


class TestDeadlockPath:
    def test_exhausted_recovery_budget_reports_deadlock(self):
        """Opposing ring traffic with a zero recovery budget: the driver
        must report the point as deadlocked, not crash."""
        tfg = build_tfg(
            "oppose",
            [("a", 400), ("b", 400), ("x", 400), ("y", 400)],
            [("m1", "a", "b", 1280), ("m2", "x", "y", 1280)],
        )
        setup = standard_setup(
            tfg, Torus((8,)), 128.0,
            allocation={"a": 0, "b": 3, "x": 3, "y": 0},
        )
        points = pipeline_comparison(
            setup, [0.5], invocations=14, warmup=2,
            compiler_config=CompilerConfig(max_paths=8, max_restarts=1,
                                           retries=0),
            wr_max_recoveries=0,
            verify_sr=False,
        )
        point = points[0]
        assert point.wr_deadlock
        assert point.wr_throughput is None
        assert point.wr_oi is None

    def test_recovery_budget_allows_completion(self):
        tfg = build_tfg(
            "oppose",
            [("a", 400), ("b", 400), ("x", 400), ("y", 400)],
            [("m1", "a", "b", 1280), ("m2", "x", "y", 1280)],
        )
        setup = standard_setup(
            tfg, Torus((8,)), 128.0,
            allocation={"a": 0, "b": 3, "x": 3, "y": 0},
        )
        points = pipeline_comparison(
            setup, [0.5], invocations=14, warmup=2,
            compiler_config=CompilerConfig(max_paths=8, max_restarts=1,
                                           retries=0),
            verify_sr=False,
        )
        point = points[0]
        assert not point.wr_deadlock
        assert point.wr_recoveries >= 1


class TestPipelinePointStatus:
    def make_point(self, feasible, stage=None):
        return PipelinePoint(
            load=0.5, tau_in=100.0,
            wr_throughput=SpikeStats(1.0, 1.0, 1.0),
            wr_latency=SpikeStats(1.0, 1.0, 1.0),
            wr_oi=False, wr_deadlock=False,
            sr_feasible=feasible, sr_fail_stage=stage,
            sr_throughput=None, sr_latency=None,
        )

    def test_status_strings(self):
        assert self.make_point(True).sr_status == "feasible"
        assert self.make_point(False, "utilization").sr_status == (
            "infeasible (utilization)"
        )
