"""Drivers for the paper's figure families.

- :func:`utilization_comparison` — Figs. 5 and 6: peak utilisation ``U``
  under LSD->MSD routing vs the AssignPaths heuristic, across normalized
  loads.
- :func:`pipeline_comparison` — Figs. 7-10: normalized throughput and
  latency of wormhole routing (with output-inconsistency spikes) and of
  scheduled routing (constant when a feasible schedule exists), across
  normalized loads.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.assign_paths import assign_paths, lsd_assignment
from repro.core.compiler import CompilerConfig, compile_schedule
from repro.core.executor import ScheduledRoutingExecutor
from repro.core.timebounds import compute_time_bounds
from repro.core.utilization import utilization_report
from repro.core.compiler import routed_and_local_messages
from repro.errors import SchedulingError, SimulationError
from repro.experiments.setup import ExperimentSetup
from repro.metrics.series import SpikeStats
from repro.wormhole.simulator import WormholeSimulator


@dataclass(frozen=True)
class UtilizationPoint:
    """One Fig. 5/6 row: peak ``U`` of both assignments at one load."""

    load: float
    tau_in: float
    u_lsd: float
    u_heuristic: float


def _routed_endpoints(setup: ExperimentSetup) -> tuple[list[str], dict]:
    routed, _ = routed_and_local_messages(setup.timing, setup.allocation)
    endpoints = {
        name: (
            setup.allocation[setup.tfg.message(name).src],
            setup.allocation[setup.tfg.message(name).dst],
        )
        for name in routed
    }
    return routed, endpoints


def utilization_comparison(
    setup: ExperimentSetup,
    loads: list[float],
    seed: int = 0,
) -> list[UtilizationPoint]:
    """Peak utilisation of LSD->MSD vs AssignPaths at each load."""
    routed, endpoints = _routed_endpoints(setup)
    points: list[UtilizationPoint] = []
    for load in loads:
        tau_in = setup.tau_in_for_load(load)
        bounds = compute_time_bounds(setup.timing, tau_in, routed)
        baseline = utilization_report(
            bounds, lsd_assignment(setup.topology, endpoints)
        )
        heuristic = assign_paths(bounds, setup.topology, endpoints, seed=seed)
        points.append(
            UtilizationPoint(
                load=load,
                tau_in=tau_in,
                u_lsd=baseline.peak,
                u_heuristic=heuristic.report.peak,
            )
        )
    return points


@dataclass(frozen=True)
class PipelinePoint:
    """One Fig. 7-10 row: WR and SR behaviour at one load.

    ``wr_throughput``/``wr_latency`` are ``None`` when the wormhole run
    deadlocked (possible on tori).  ``sr_fail_stage`` is ``None`` on
    success, otherwise the compiler stage that proved infeasibility —
    exactly the annotations the paper's figures carry ("U > 1.0 when
    load > 0.3636", "message-interval allocation fails").
    """

    load: float
    tau_in: float
    wr_throughput: SpikeStats | None
    wr_latency: SpikeStats | None
    wr_oi: bool | None
    wr_deadlock: bool
    sr_feasible: bool
    sr_fail_stage: str | None
    sr_peak_utilization: float | None
    sr_throughput: float | None
    sr_latency: float | None
    wr_recoveries: int = 0

    @property
    def sr_status(self) -> str:
        """Compact status string for reports."""
        if self.sr_feasible:
            return "feasible"
        return f"infeasible ({self.sr_fail_stage})"


def pipeline_comparison(
    setup: ExperimentSetup,
    loads: list[float],
    invocations: int = 40,
    warmup: int = 8,
    compiler_config: CompilerConfig | None = None,
    virtual_channels: int = 1,
    verify_sr: bool = True,
    wr_max_recoveries: int | None = None,
) -> list[PipelinePoint]:
    """Measure WR (simulated) and SR (compiled, optionally replayed) at
    each load — the full Figs. 7-10 protocol.

    ``wr_max_recoveries`` forwards to the wormhole simulator's deadlock-
    recovery budget; runs that exhaust it are reported as deadlocked.
    """
    config = compiler_config or CompilerConfig()
    points: list[PipelinePoint] = []
    for load in loads:
        tau_in = setup.tau_in_for_load(load)

        wr_thr = wr_lat = None
        wr_oi = None
        wr_deadlock = False
        wr_recoveries = 0
        simulator = WormholeSimulator(
            setup.timing,
            setup.topology,
            setup.allocation,
            virtual_channels=virtual_channels,
        )
        try:
            result = simulator.run(
                tau_in, invocations=invocations, warmup=warmup,
                max_recoveries=wr_max_recoveries,
            )
            wr_thr = result.throughput_stats()
            wr_lat = result.latency_stats()
            wr_oi = result.has_oi()
            wr_recoveries = result.extra.get("recoveries", 0)
        except SimulationError:
            wr_deadlock = True

        sr_feasible = False
        sr_stage = None
        sr_peak = None
        sr_thr = sr_lat = None
        try:
            routing = compile_schedule(
                setup.timing, setup.topology, setup.allocation, tau_in, config
            )
            sr_feasible = True
            sr_peak = routing.utilization.peak
            if verify_sr:
                executor = ScheduledRoutingExecutor(
                    routing, setup.timing, setup.topology, setup.allocation
                )
                sr_result = executor.run(invocations=invocations, warmup=warmup)
                sr_thr = sr_result.throughput_stats().mean
                sr_lat = sr_result.latency_stats().mean
            else:
                sr_thr = 1.0
                sr_lat = (
                    setup.timing.asap_latency()
                    / setup.timing.critical_path().length
                )
        except SchedulingError as error:
            sr_stage = error.stage

        points.append(
            PipelinePoint(
                load=load,
                tau_in=tau_in,
                wr_throughput=wr_thr,
                wr_latency=wr_lat,
                wr_oi=wr_oi,
                wr_deadlock=wr_deadlock,
                sr_feasible=sr_feasible,
                sr_fail_stage=sr_stage,
                sr_peak_utilization=sr_peak,
                sr_throughput=sr_thr,
                sr_latency=sr_lat,
                wr_recoveries=wr_recoveries,
            )
        )
    return points
