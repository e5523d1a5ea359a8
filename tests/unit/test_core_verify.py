"""Unit tests for the bundled schedule verification."""

import dataclasses

import pytest

from repro.core.compiler import compile_schedule
from repro.core.io import schedule_from_dict, schedule_to_dict
from repro.core.switching import TransmissionSlot
from repro.core.verify import verify_schedule
from repro.errors import ScheduleValidationError
from repro.tfg import TFGTiming
from repro.tfg.synth import chain_tfg


@pytest.fixture()
def compiled(cube3):
    timing = TFGTiming(chain_tfg(4, 400, 1280), 128.0, speeds=40.0)
    allocation = {"t0": 0, "t1": 1, "t2": 3, "t3": 7}
    routing = compile_schedule(timing, cube3, allocation, tau_in=40.0)
    return routing, timing, cube3, allocation


class TestVerifySchedule:
    def test_fresh_compile_verifies(self, compiled):
        routing, timing, topology, allocation = compiled
        report = verify_schedule(routing, timing, topology, allocation)
        assert report.commands_replayed == routing.schedule.num_commands
        assert report.mean_normalized_throughput == pytest.approx(1.0)
        assert not report.output_inconsistency

    def test_reloaded_schedule_verifies(self, compiled):
        routing, timing, topology, allocation = compiled
        rebuilt = schedule_from_dict(schedule_to_dict(routing.schedule))
        routing.schedule = rebuilt
        report = verify_schedule(routing, timing, topology, allocation)
        assert not report.output_inconsistency

    def test_tampered_schedule_rejected(self, compiled):
        routing, timing, topology, allocation = compiled
        name = next(iter(routing.schedule.slots))
        slots = routing.schedule.slots[name]
        routing.schedule = dataclasses.replace(routing.schedule, slots={
            **routing.schedule.slots,
            name: tuple(
                TransmissionSlot(s.message, s.start, s.duration / 2, s.path)
                for s in slots
            ),
        })
        with pytest.raises(ScheduleValidationError):
            verify_schedule(routing, timing, topology, allocation)

    def test_invocation_budget_respected(self, compiled):
        routing, timing, topology, allocation = compiled
        report = verify_schedule(
            routing, timing, topology, allocation, invocations=10, warmup=2
        )
        assert report.invocations_executed == 10

    def test_clean_schedule_has_zero_findings(self, compiled):
        routing, timing, topology, allocation = compiled
        report = verify_schedule(routing, timing, topology, allocation)
        assert report.analyzer_findings == 0

    def test_invocations_executed_reports_executor_count(
        self, compiled, monkeypatch
    ):
        # Regression: the report used to echo the caller's `invocations`
        # argument.  Make the executor return fewer completions than
        # requested and check the report tells the truth.
        from repro.core import verify as verify_module

        real_run = verify_module.ScheduledRoutingExecutor.run

        def short_run(self, invocations=24, warmup=4, **kwargs):
            result = real_run(
                self, invocations=invocations, warmup=warmup, **kwargs
            )
            object.__setattr__(
                result, "completion_times", result.completion_times[:-3]
            )
            return result

        monkeypatch.setattr(
            verify_module.ScheduledRoutingExecutor, "run", short_run
        )
        routing, timing, topology, allocation = compiled
        report = verify_schedule(
            routing, timing, topology, allocation, invocations=12, warmup=4
        )
        assert report.invocations_executed == 9

    def test_insufficient_invocations_rejected_at_boundary(self, compiled):
        # Regression: `invocations - warmup >= 4` used to surface as a
        # ScheduleValidationError from deep inside the executor; it is a
        # caller error and must be a ValueError at the verify boundary.
        routing, timing, topology, allocation = compiled
        with pytest.raises(ValueError, match="warmup"):
            verify_schedule(
                routing, timing, topology, allocation,
                invocations=6, warmup=4,
            )
