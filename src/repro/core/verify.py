"""One-call verification of a scheduled-routing solution.

Bundles the library's independent checks of a communication schedule —
useful after loading a schedule from disk or after any manual surgery on
one:

1. **conformance analysis** — every SR invariant re-derived from
   scratch on the serialized schedule alone, independent of compiler
   internals (:func:`repro.check.analyzer.analyze_schedule`);
2. **static validation** — slot coverage, window containment, link
   exclusivity, node-schedule/slot consistency
   (:meth:`~repro.core.switching.CommunicationSchedule.validate`);
3. **hardware replay** — every node's command stream driven through the
   crossbar model (:func:`~repro.cp.processor.replay_schedule`);
4. **dynamic replay** — the full pipelined execution re-run on the
   discrete-event kernel, asserting contention-freedom, deadlines and
   constant throughput
   (:class:`~repro.core.executor.ScheduledRoutingExecutor`).

See ``docs/verification.md`` for how the tiers complement each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.compiler import ScheduledRouting
from repro.core.executor import ScheduledRoutingExecutor
from repro.cp import replay_schedule
from repro.errors import ScheduleValidationError
from repro.results import MIN_MEASURED_INVOCATIONS
from repro.tfg.analysis import TFGTiming
from repro.topology.base import Topology


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the four-stage verification (raises before returning
    on any failure, so a returned report certifies success)."""

    commands_replayed: int
    invocations_executed: int
    mean_normalized_throughput: float
    output_inconsistency: bool
    analyzer_findings: int


def verify_schedule(
    routing: ScheduledRouting,
    timing: TFGTiming,
    topology: Topology,
    allocation: Mapping[str, int],
    invocations: int = 24,
    warmup: int = 4,
) -> VerificationReport:
    """Run every check; raise
    :class:`~repro.errors.ScheduleValidationError` on the first failure.

    ``invocations`` must exceed ``warmup`` by at least
    :data:`MIN_MEASURED_INVOCATIONS` — the dynamic replay measures
    steady-state behaviour over the post-warmup window and cannot
    certify anything from fewer points.  Violations raise
    :class:`ValueError` here, at the boundary, instead of surfacing as a
    replay failure deep inside the executor.

    ``invocations_executed`` in the returned report counts what the
    executor actually ran (including warm-up), not what was requested.

    >>> # see tests/unit/test_core_verify.py for executable examples
    """
    if invocations - warmup < MIN_MEASURED_INVOCATIONS:
        raise ValueError(
            f"invocations ({invocations}) must exceed warmup ({warmup}) by "
            f"at least {MIN_MEASURED_INVOCATIONS} measured invocations"
        )
    from repro.check.analyzer import analyze_schedule

    conformance = analyze_schedule(
        routing.schedule, topology, timing=timing, allocation=allocation
    )
    if not conformance.ok:
        raise ScheduleValidationError(
            f"conformance analyzer flagged the schedule: "
            f"{conformance.summary()}"
        )
    routing.schedule.validate()
    commands = replay_schedule(routing.schedule, topology)
    executor = ScheduledRoutingExecutor(routing, timing, topology, allocation)
    result = executor.run(invocations=invocations, warmup=warmup)
    return VerificationReport(
        commands_replayed=commands,
        invocations_executed=len(result.completion_times),
        mean_normalized_throughput=result.throughput_stats().mean,
        output_inconsistency=result.has_oi(),
        analyzer_findings=len(conformance.findings),
    )
