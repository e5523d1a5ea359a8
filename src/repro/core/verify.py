"""One-call verification of a scheduled-routing solution.

Bundles the library's independent checks of a communication schedule —
useful after loading a schedule from disk or after any manual surgery on
one:

1. **conformance analysis** — every SR invariant re-derived from
   scratch on the serialized schedule alone, independent of compiler
   internals (:func:`repro.check.analyzer.analyze_schedule`);
2. **dynamic replay** — Ω itself, every node's crossbar settings chained
   into source-to-destination circuits, executed for the full pipelined
   run on the discrete-event kernel, asserting contention-freedom,
   deadlines and constant throughput
   (:class:`~repro.core.executor.ScheduledRoutingExecutor`).

The compiler's own :meth:`~repro.core.switching.CommunicationSchedule.
validate` is not run again: every schedule passed it when it was built
or decoded, and on the mutation corpus it rejects nothing the analyzer
accepts (``test_every_validate_kill_is_an_analyzer_kill``).

See ``docs/verification.md`` for how the tiers complement each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.compiler import ScheduledRouting
from repro.core.executor import ScheduledRoutingExecutor
from repro.errors import ScheduleValidationError
from repro.results import require_measured
from repro.tfg.analysis import TFGTiming
from repro.topology.base import Topology


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the two-stage verification (raises before returning
    on any failure, so a returned report certifies success).

    ``commands_replayed`` counts the switching commands the executor
    placed on circuits: every command of Ω, once verification passes."""

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

    ``invocations_executed`` in the returned report counts the
    completions the executor returned (including warm-up): every
    invocation asked, whether replayed or written down from invocations
    0…K, which prove every invocation offset.

    >>> # see tests/unit/test_core_verify.py for executable examples
    """
    require_measured(invocations, warmup, ValueError)
    from repro.check.analyzer import analyze_schedule

    conformance = analyze_schedule(
        routing.schedule, topology, timing=timing, allocation=allocation
    )
    if not conformance.ok:
        raise ScheduleValidationError(
            f"conformance analyzer flagged the schedule: "
            f"{conformance.summary()}"
        )
    executor = ScheduledRoutingExecutor(routing, timing, topology, allocation)
    result = executor.run(invocations=invocations, warmup=warmup)
    return VerificationReport(
        commands_replayed=executor.commands_placed,
        invocations_executed=len(result.completion_times),
        mean_normalized_throughput=result.throughput_stats().mean,
        output_inconsistency=result.has_oi(),
        analyzer_findings=len(conformance.findings),
    )
