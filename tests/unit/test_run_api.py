"""Unit tests of the unified run API: keywords in, RunResult out.

Also covers the kernel-validation satellites that rode along with the
API change: negative and NaN ``call_later`` delays raising a
:class:`~repro.errors.SimulationError` subclass, and the FIFO tie-break
counter being per environment.
"""

from __future__ import annotations

import inspect
import math

import pytest

from repro.errors import (
    InvalidDelayError,
    ScheduleValidationError,
    SimulationError,
)
from repro.results import INVOCATIONS, WARMUP, RunResult, require_measured
from repro.sim import Environment
from repro.trace import NULL_TRACER, TraceRecorder


def make_result(**overrides):
    kwargs = dict(
        tau_in=10.0,
        completion_times=(10.0, 20.0, 30.0, 40.0, 50.0),
        warmup=1,
        critical_path_length=30.0,
    )
    kwargs.update(overrides)
    return RunResult(**kwargs)


class TestRunKeywords:
    """Every runner takes its run as keywords, with one set of defaults."""

    def test_defaults(self):
        from repro.core.executor import ScheduledRoutingExecutor
        from repro.faults.compare import fault_recovery_experiment
        from repro.wormhole import WormholeSimulator

        assert (INVOCATIONS, WARMUP) == (40, 8)
        for runner in (
            ScheduledRoutingExecutor.run,
            WormholeSimulator.run,
            fault_recovery_experiment,
        ):
            parameters = inspect.signature(runner).parameters
            assert parameters["invocations"].default == INVOCATIONS
            assert parameters["warmup"].default == WARMUP
            if runner is not fault_recovery_experiment:
                assert parameters["fault_trace"].default is None
                assert parameters["tracer"].default is NULL_TRACER

    def test_keyword_only(self, tiny_timing, cube3):
        from repro.wormhole import WormholeSimulator

        sim = WormholeSimulator(tiny_timing, cube3, {"t0": 0, "t1": 1, "t2": 3})
        with pytest.raises(TypeError):
            sim.run(30.0, 12, 4)  # noqa: the positional form must not exist
        result = sim.run(30.0)
        assert len(result.completion_times) == INVOCATIONS
        assert result.warmup == WARMUP


class TestNegativeWarmup:
    """``require_measured`` refuses a negative warm-up, so every runner
    refuses it before any replay, with its documented error type."""

    def test_require_measured_rejects_it(self):
        with pytest.raises(ValueError, match="warmup must be >= 0, got -2"):
            require_measured(3, -2, ValueError)

    def test_wormhole_raises_simulation_error(self, tiny_timing, cube3):
        from repro.wormhole import WormholeSimulator

        sim = WormholeSimulator(tiny_timing, cube3, {"t0": 0, "t1": 1, "t2": 3})
        with pytest.raises(SimulationError, match="warmup must be >= 0"):
            sim.run(30.0, invocations=0, warmup=-5)

    def test_executor_raises_before_replaying(self, dvb_setup_128):
        from repro.core.compiler import compile_schedule
        from repro.core.executor import ScheduledRoutingExecutor

        setup = dvb_setup_128
        routing = compile_schedule(
            setup.timing, setup.topology, setup.allocation,
            setup.tau_in_for_load(0.5),
        )
        tracer = TraceRecorder()
        with pytest.raises(ScheduleValidationError, match="warmup must be >= 0"):
            ScheduledRoutingExecutor(
                routing, setup.timing, setup.topology, setup.allocation
            ).run(invocations=3, warmup=-2, tracer=tracer)
        assert len(tracer) == 0


class TestRunResult:
    def test_measured_completions_exclude_warmup(self):
        result = make_result()
        assert result.measured_completions == (20.0, 30.0, 40.0, 50.0)

    def test_intervals_and_latencies(self):
        result = make_result()
        assert result.intervals == pytest.approx([10.0, 10.0, 10.0])
        assert result.latencies == pytest.approx([10.0, 10.0, 10.0, 10.0])

    def test_oi_and_jitter_on_regular_output(self):
        result = make_result()
        assert not result.has_oi()
        assert result.jitter().peak_to_peak == pytest.approx(0.0)

    def test_requires_enough_measured_points(self):
        with pytest.raises(ValueError):
            make_result(completion_times=(10.0, 20.0, 30.0), warmup=1)

    def test_trace_defaults_to_none_and_is_not_compared(self):
        traced = make_result(trace=TraceRecorder())
        untraced = make_result()
        assert untraced.trace is None
        assert traced == untraced  # trace excluded from equality


class TestShimsRemoved:
    """The one-cycle deprecation shims are gone (see docs/api.md)."""

    def test_pipeline_run_result_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            import repro.wormhole.results  # noqa: F401

    def test_pipeline_run_result_not_exported(self):
        import repro
        import repro.wormhole

        assert not hasattr(repro, "PipelineRunResult")
        assert not hasattr(repro.wormhole, "PipelineRunResult")
        assert "PipelineRunResult" not in repro.__all__

    def test_fault_report_has_no_sr_post_repair(self):
        from repro.faults.compare import FaultRecoveryReport

        report = FaultRecoveryReport(
            tau_in=10.0,
            trace=None,
            failed_links=frozenset(),
            detection_time=None,
            repair=None,
            sr_result=make_result(),
            outage=None,
            wr_result=None,
            wr_error=None,
        )
        assert not hasattr(report, "sr_post_repair")
        assert report.sr_result is not None

    def test_run_api_is_keywords_and_one_result(self):
        """No run-parameter bundle and no merger of two call forms: the
        classes and functions ``repro.results`` defines are the result
        and the rule every runner checks, and ``RunResult`` is the one
        ``Run*`` name of the facade."""
        import repro
        import repro.results

        defined = {
            name for name, value in vars(repro.results).items()
            if getattr(value, "__module__", None) == "repro.results"
        }
        assert defined == {"RunResult", "require_measured"}
        assert [n for n in dir(repro) if n.startswith("Run")] == ["RunResult"]
        assert [n for n in repro.__all__ if n.startswith("Run")] == ["RunResult"]


class TestTimeoutValidation:
    def test_negative_delay_raises_simulation_error(self):
        env = Environment()
        with pytest.raises(InvalidDelayError) as excinfo:
            env.call_later(-1.0, print, None)
        assert isinstance(excinfo.value, SimulationError)
        assert isinstance(excinfo.value, ValueError)  # historical contract
        assert "non-negative" in str(excinfo.value)

    def test_nan_delay_rejected(self):
        env = Environment()
        with pytest.raises(InvalidDelayError):
            env.call_later(math.nan, print, None)


class TestPerEnvironmentFifo:
    def test_tie_break_counters_do_not_cross_environments(self):
        """Scheduling activity in one environment must never perturb the
        FIFO order of simultaneous events in another."""
        noisy = Environment()

        def run_probe(interleave: bool) -> list[str]:
            env = Environment()
            order: list[str] = []
            for tag in ("a", "b", "c", "d"):
                if interleave:
                    noisy.call_later(1.0, print, None)  # advances any shared counter
                env.call_later(1.0, order.append, tag)
            env.run()
            return order

        assert run_probe(interleave=False) == ["a", "b", "c", "d"]
        assert run_probe(interleave=True) == ["a", "b", "c", "d"]
