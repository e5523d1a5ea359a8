"""The survivability experiment: SR-with-repair vs adaptive wormhole.

Scheduled routing and wormhole routing degrade along opposite axes when a
link dies.  Wormhole routing (with adaptive path selection) keeps
delivering — at the price of exactly the FCFS queueing jitter the paper
spends Section 3 proving away.  Scheduled routing *stops* delivering on
the dead link until a repaired schedule is compiled — at the price of an
outage window — and is then jitter-free again.

:func:`fault_recovery_experiment` runs both sides under the *identical*
seeded fault trace and reports the full trade: detection instant, repair
strategy and wall-clock latency, deliveries lost in the outage window,
post-repair jitter (SR) vs degraded-mode jitter (WR).  The ``faults``
CLI subcommand and the ``paper.fault_recovery`` pin row of
``tools/pins.py`` both run this one function, so they cannot drift apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.compiler import CompilerConfig, compile_schedule
from repro.core.executor import ScheduledRoutingExecutor
from repro.core.verify import verify_schedule
from repro.errors import FaultInjectionError, SimulationError
from repro.faults.models import FaultTrace, generate_fault_trace
from repro.faults.repair import RepairOutcome, repair_schedule
from repro.metrics.survivability import OutageReport, outage_misses
from repro.results import INVOCATIONS, WARMUP, RunResult
from repro.topology.base import Link
from repro.wormhole.adaptive import AdaptiveWormholeSimulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.setup import ExperimentSetup


@dataclass(frozen=True)
class FaultRecoveryReport:
    """Both sides of one seeded fault scenario.

    Attributes
    ----------
    tau_in:
        Input period of the run (both techniques).
    trace:
        The injected fault history (identical for SR and WR).
    failed_links:
        The permanent link failures the repair engine handled.
    detection_time:
        Model time at which the SR executor hit the dead link (None when
        the faulted replay completed before any slot touched it).
    repair:
        The repair engine's outcome (strategy, latency, reroutes).
    sr_result:
        Replay of the repaired schedule on the residual machine — its
        jitter is the "guarantee restored" claim.
    outage:
        Deliveries lost between the fault and the first frame start at
        which a repaired schedule can take effect.
    wr_result:
        The adaptive wormhole run under the same trace (None when the
        run could not complete, see ``wr_error``).
    wr_error:
        Diagnostic when the wormhole run raised instead of completing.
    """

    tau_in: float
    trace: FaultTrace
    failed_links: frozenset[Link]
    detection_time: float | None
    repair: RepairOutcome
    sr_result: RunResult
    outage: OutageReport
    wr_result: RunResult | None
    wr_error: str | None

    def describe(self) -> str:
        """Multi-line human-readable summary (the CLI's output body)."""
        lines = [
            f"fault trace        : {self.trace.describe()}",
            "detection          : "
            + (
                f"t={self.detection_time:.3f}us (link claim failed)"
                if self.detection_time is not None
                else "not hit during replay window"
            ),
            f"repair strategy    : {self.repair.strategy}",
            f"repair latency     : {self.repair.repair_wall_ms:.2f} ms "
            f"({self.repair.messages_rerouted} messages rerouted, "
            f"{len(self.repair.affected_messages)} affected)",
            f"post-repair peak U : {self.repair.peak_utilization:.4f}",
            f"outage window      : [{self.outage.window[0]:.3f}, "
            f"{self.outage.window[1]:.3f})us — "
            f"{self.outage.num_missed_deliveries} deliveries lost, "
            f"{self.outage.num_missed_invocations} invocations missed",
        ]
        sr_jitter = self.sr_result.jitter()
        lines.append(
            f"SR repaired jitter : peak-to-peak {sr_jitter.peak_to_peak:.6f}us "
            f"(OI={self.sr_result.has_oi()})"
        )
        if self.wr_result is not None:
            wr_jitter = self.wr_result.jitter()
            lines.append(
                f"WR degraded jitter : peak-to-peak "
                f"{wr_jitter.peak_to_peak:.6f}us "
                f"(OI={self.wr_result.has_oi()}, "
                f"fault aborts={self.wr_result.extra.get('fault_aborts', 0)})"
            )
        else:
            lines.append(f"WR degraded run    : FAILED — {self.wr_error}")
        return "\n".join(lines)


def fault_recovery_experiment(
    setup: "ExperimentSetup",
    load: float,
    seed: int = 0,
    n_link_faults: int = 1,
    n_drifts: int = 0,
    invocations: int = INVOCATIONS,
    warmup: int = WARMUP,
    config: CompilerConfig | None = None,
) -> FaultRecoveryReport:
    """Inject, detect, repair, and compare against adaptive wormhole.

    Compiles a scheduled-routing solution for ``setup`` at normalized
    ``load``, draws a seeded fault trace restricted to links the schedule
    actually uses (so the fault is guaranteed to be *felt*), then:

    1. replays the schedule under the trace until a slot claim hits the
       dead link (:class:`~repro.errors.LinkFailedError` = detection);
    2. runs the repair engine and re-verifies the repaired schedule on
       the residual topology (:func:`~repro.core.verify.verify_schedule`);
    3. replays the repaired schedule to measure post-repair jitter;
    4. charges SR the outage window from the fault to the first frame
       start after detection (after the fault, when nothing was
       detected) and counts the deliveries lost in it;
    5. runs :class:`~repro.wormhole.adaptive.AdaptiveWormholeSimulator`
       under the identical trace for the degraded-mode comparison.

    Fault start times fall inside the first half of the replay window so
    detection happens mid-run.

    A repaired Ω can only take effect at a frame start, so the window is
    the fewest deliveries any repair loses, however fast; the measured
    repair latency is reported beside it, not added to it.  ``seed``
    draws the fault trace.
    """
    config = config or CompilerConfig()
    tau_in = setup.tau_in_for_load(load)
    routing = compile_schedule(
        setup.timing, setup.topology, setup.allocation, tau_in, config
    )
    used_links = tuple(sorted({
        link
        for slots in routing.schedule.slots.values()
        for slot in slots
        for link in slot.links
    }))
    horizon = max(0.5 * invocations * tau_in, tau_in)
    trace = generate_fault_trace(
        setup.topology,
        seed=seed,
        n_link_faults=n_link_faults,
        n_drifts=n_drifts,
        horizon=horizon,
        candidate_links=used_links,
    )
    failed = trace.permanent_failed_links(setup.topology)

    executor = ScheduledRoutingExecutor(
        routing, setup.timing, setup.topology, setup.allocation
    )
    detection_time: float | None = None
    try:
        executor.run(invocations=invocations, warmup=warmup, fault_trace=trace)
    except FaultInjectionError as error:
        # LinkFailedError carries the claim instant; drift-induced
        # violations may be caught statically (detection_time None).
        detection_time = error.detection_time

    repair = repair_schedule(
        routing, setup.timing, setup.topology, setup.allocation, failed,
        config=config,
    )
    verify_schedule(
        repair.routing, setup.timing, repair.residual, setup.allocation
    )
    sr_result = ScheduledRoutingExecutor(
        repair.routing, setup.timing, repair.residual, setup.allocation
    ).run(invocations=invocations, warmup=warmup)

    fault_start = min(
        (f.start for f in trace.all_link_faults(setup.topology) if f.permanent),
        default=0.0,
    )
    noticed = detection_time if detection_time is not None else fault_start
    repair_applied = (math.floor(noticed / tau_in) + 1) * tau_in
    outage = outage_misses(
        executor, failed, (fault_start, repair_applied), invocations
    )

    wr_result = wr_error = None
    try:
        wr_result = AdaptiveWormholeSimulator(
            setup.timing, setup.topology, setup.allocation
        ).run(
            tau_in, invocations=invocations, warmup=warmup, fault_trace=trace
        )
    except SimulationError as error:
        wr_error = str(error)

    return FaultRecoveryReport(
        tau_in=tau_in,
        trace=trace,
        failed_links=failed,
        detection_time=detection_time,
        repair=repair,
        sr_result=sr_result,
        outage=outage,
        wr_result=wr_result,
        wr_error=wr_error,
    )