"""Unit tests of the unified run API: RunConfig and RunResult.

Also covers the kernel-validation satellites that rode along with the
API change: negative and NaN ``call_later`` delays raising a
:class:`~repro.errors.SimulationError` subclass, and the FIFO tie-break
counter being per environment.
"""

from __future__ import annotations

import math

import pytest

from repro.errors import InvalidDelayError, SimulationError
from repro.results import RunConfig, RunResult, resolve_run_config
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


class TestRunConfig:
    def test_defaults(self):
        config = RunConfig()
        assert config.invocations == 40
        assert config.warmup == 8
        assert config.seed == 0
        assert config.fault_trace is None
        assert config.tracer is NULL_TRACER
        assert config.max_recoveries is None

    def test_keyword_only(self):
        with pytest.raises(TypeError):
            RunConfig(12)  # noqa: the positional form must not exist

    def test_frozen(self):
        config = RunConfig()
        with pytest.raises(AttributeError):
            config.invocations = 10

    def test_replace(self):
        config = RunConfig(invocations=12)
        other = config.replace(warmup=2)
        assert other.invocations == 12 and other.warmup == 2
        assert config.warmup == 8  # original untouched

    def test_resolve_legacy_overrides(self):
        config = RunConfig(invocations=20, warmup=5)
        resolved = resolve_run_config(config, invocations=30, warmup=None)
        assert resolved.invocations == 30  # explicit legacy wins
        assert resolved.warmup == 5  # None means "not passed"

    def test_resolve_without_config_uses_defaults(self):
        resolved = resolve_run_config(None, invocations=None)
        assert resolved == RunConfig()


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


class TestRunnersAcceptConfig:
    """Legacy keyword calls and RunConfig calls produce identical runs."""

    def test_wormhole_config_equivalent_to_legacy(
        self, tiny_timing, cube3
    ):
        from repro.wormhole import WormholeSimulator

        allocation = {"t0": 0, "t1": 1, "t2": 3}
        sim = WormholeSimulator(tiny_timing, cube3, allocation)
        legacy = sim.run(30.0, invocations=12, warmup=4)
        modern = sim.run(30.0, config=RunConfig(invocations=12, warmup=4))
        assert modern == legacy
        assert isinstance(modern, RunResult)
        assert type(modern) is RunResult  # not the deprecated subclass
