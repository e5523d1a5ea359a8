"""Online repair of a scheduled-routing solution after permanent faults.

Scheduled routing's compile-time guarantee dies with the first permanent
link failure: some messages' clear paths no longer exist.  The repair
engine restores the guarantee on the **residual topology**:

1. **Local repair** (preferred): keep every unaffected message on its
   existing path and re-run the AssignPaths-style improvement search
   *only over the affected messages*, drawing candidate paths from the
   residual network's surviving shortest paths.  The messages' original
   release/deadline windows are untouched (the input period, the TFG
   timing and hence the time bounds are exactly those of the broken
   schedule), so a successful local repair disturbs no healthy message.
2. **Full recompilation** (fallback): when the locally repaired
   assignment fails the utilisation gate or a downstream LP, recompile
   from scratch on the residual topology — every message may move.
3. **Infeasible**: the fault disconnected some message's endpoints, or
   even the full recompile cannot pack the requirements into the
   surviving links; :class:`~repro.errors.RepairInfeasibleError` is
   raised with the diagnosis.

Either repair path ends in :func:`~repro.core.switching.build_schedule`'s
machine-validation, and the result can be handed straight to
:func:`repro.core.verify.verify_schedule` on the residual topology.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Mapping

from repro.core.assignment import PathAssignment
from repro.core.compiler import (
    CompilerConfig,
    ScheduledRouting,
    compile_schedule,
    schedule_from_assignment,
)
from repro.core.utilization import (
    CandidateFrame,
    UtilizationState,
    utilization_report,
)
from repro.errors import RepairInfeasibleError, SchedulingError, TopologyError
from repro.faults.residual import ResidualTopology
from repro.tfg.analysis import TFGTiming
from repro.topology.base import Link, Topology
from repro.units import EPS

#: Cap on residual candidate paths per affected message.
MAX_REPAIR_POOL = 48

#: Cap on reroutes one local repair applies (each strictly lowers the peak).
MAX_DESCENT_ROUNDS = 50


@dataclass(frozen=True)
class RepairOutcome:
    """What the repair engine did and what it cost.

    Attributes
    ----------
    routing:
        The repaired schedule, valid on :attr:`residual`.
    residual:
        The degraded topology the repaired schedule runs on.
    strategy:
        ``"none"`` (no message crossed a failed link), ``"local"``
        (affected messages rerouted in place) or ``"recompile"`` (full
        pipeline re-run).
    affected_messages, rerouted_messages:
        Messages whose path crossed a failed link; messages whose path
        actually changed (for ``"recompile"`` this may include healthy
        messages the fresh AssignPaths moved).
    repair_wall_ms:
        Wall-clock cost of the repair computation — the compile-side
        contribution to the detection -> repair outage window.
    peak_utilization:
        Post-repair peak utilisation ``U`` on the residual topology.
    """

    routing: ScheduledRouting
    residual: Topology
    strategy: str
    affected_messages: tuple[str, ...]
    rerouted_messages: tuple[str, ...]
    repair_wall_ms: float
    peak_utilization: float

    @property
    def messages_rerouted(self) -> int:
        return len(self.rerouted_messages)


def affected_messages(
    routing: ScheduledRouting, failed_links: frozenset[Link]
) -> tuple[str, ...]:
    """Messages whose assigned path crosses any failed link."""
    hit = []
    for name, path in routing.schedule.assignment.items():
        links = {
            (min(u, v), max(u, v)) for u, v in zip(path, path[1:])
        }
        if links & failed_links:
            hit.append(name)
    return tuple(hit)


def repair_schedule(
    routing: ScheduledRouting,
    timing: TFGTiming,
    topology: Topology,
    allocation: Mapping[str, int],
    failed_links,
    config: CompilerConfig | None = None,
    allow_local: bool = True,
) -> RepairOutcome:
    """Repair a compiled schedule after permanent link failures.

    Parameters
    ----------
    routing:
        The schedule that was valid before the failure.
    timing, topology, allocation:
        The inputs it was compiled from (``topology`` is the *healthy*
        machine; the residual is derived here).
    failed_links:
        Permanently failed links (any iterable of node pairs) — e.g.
        ``trace.permanent_failed_links(topology)``.
    config:
        Compiler knobs for the downstream stages / full recompile;
        defaults to a fresh :class:`~repro.core.compiler.CompilerConfig`.
    allow_local:
        Set False to force the full-recompilation path (used by tests
        and ablations).

    Raises
    ------
    RepairInfeasibleError
        When no valid schedule exists on the residual topology.
    """
    config = config or CompilerConfig()
    failed = frozenset(
        (min(u, v), max(u, v)) for u, v in failed_links
    )
    began = time.perf_counter()
    residual = ResidualTopology(topology, failed)
    affected = affected_messages(routing, failed)
    if not affected:
        return RepairOutcome(
            routing=routing,
            residual=residual,
            strategy="none",
            affected_messages=(),
            rerouted_messages=(),
            repair_wall_ms=(time.perf_counter() - began) * 1e3,
            peak_utilization=routing.utilization.peak,
        )

    bounds = routing.bounds
    endpoints = {
        name: (routing.schedule.assignment[name][0],
               routing.schedule.assignment[name][-1])
        for name in routing.schedule.assignment
    }
    # Disconnected endpoints are unrepairable regardless of strategy.
    for name in affected:
        src, dst = endpoints[name]
        if not residual.connected(src, dst):
            raise RepairInfeasibleError(
                f"message {name!r}: nodes {src} and {dst} disconnected by "
                f"failed links {sorted(failed)}"
            )

    if allow_local:
        try:
            repaired, rerouted = _local_repair(
                bounds, residual, endpoints, routing, affected,
                routing.tau_in, list(routing.local_messages), config,
            )
            return RepairOutcome(
                routing=repaired,
                residual=residual,
                strategy="local",
                affected_messages=affected,
                rerouted_messages=rerouted,
                repair_wall_ms=(time.perf_counter() - began) * 1e3,
                peak_utilization=repaired.utilization.peak,
            )
        except (SchedulingError, TopologyError):
            pass  # fall through to full recompilation

    try:
        recompiled = compile_schedule(
            timing,
            residual,
            allocation,
            routing.tau_in,
            _recompile_config(config),
        )
    except SchedulingError as error:
        raise RepairInfeasibleError(
            f"local repair and full recompilation both failed on "
            f"{residual.name}: {error}"
        ) from error
    rerouted = tuple(
        name
        for name, path in recompiled.schedule.assignment.items()
        if path != routing.schedule.assignment.get(name)
    )
    return RepairOutcome(
        routing=recompiled,
        residual=residual,
        strategy="recompile",
        affected_messages=affected,
        rerouted_messages=rerouted,
        repair_wall_ms=(time.perf_counter() - began) * 1e3,
        peak_utilization=recompiled.utilization.peak,
    )


def _recompile_config(config: CompilerConfig) -> CompilerConfig:
    """The full-recompile config: AssignPaths is mandatory (LSD->MSD
    routes may cross the failed links)."""
    if config.use_assign_paths:
        return config
    return replace(config, use_assign_paths=True)


def _local_repair(
    bounds,
    residual: ResidualTopology,
    endpoints: Mapping[str, tuple[int, int]],
    routing: ScheduledRouting,
    affected: tuple[str, ...],
    tau_in: float,
    local: list[str],
    config: CompilerConfig,
):
    """Reroute only the affected messages, then re-run downstream stages.

    Returns ``(ScheduledRouting, rerouted names)``; raises a
    :class:`~repro.errors.SchedulingError` subclass when the restricted
    assignment cannot be scheduled (the caller falls back to a full
    recompile).
    """
    frame = CandidateFrame(
        bounds, residual, {name: endpoints[name] for name in affected},
        MAX_REPAIR_POOL,
    )
    # Seed each affected message with its first surviving candidate; the
    # unaffected messages keep their (still minimal, still live) paths.
    paths = {
        name: list(path)
        for name, path in routing.schedule.assignment.items()
    }
    for name in affected:
        paths[name] = list(frame.pools[name][0])
    assignment = PathAssignment(
        residual, dict(endpoints), paths, validated=frame.validated
    )

    state = UtilizationState(bounds, assignment, frame)
    _descend_affected(state)

    report = utilization_report(bounds, state.assignment, frame)
    repaired = schedule_from_assignment(
        bounds, state.assignment, report, tau_in, local, config,
    )
    rerouted = tuple(
        name
        for name in affected
        if repaired.schedule.assignment[name]
        != routing.schedule.assignment[name]
    )
    return repaired, rerouted


def _descend_affected(state: UtilizationState) -> None:
    """Greedy peak-utilisation descent restricted to the affected messages
    (the ones the state's frame holds candidate pools for).

    A miniature of :func:`repro.core.assign_paths.assign_paths`'s inner
    loop over the same batched per-message evaluation: in each round,
    try every candidate path of every affected message and apply the
    single reroute with the largest peak reduction; stop when no reroute
    improves the peak.
    """
    for _ in range(MAX_DESCENT_ROUNDS):
        best_value = state.peak().value
        best_move: tuple[str, tuple[int, ...]] | None = None
        for name in state.frame.pools:
            for path, outcome in state.evaluate_pool(name):
                if outcome.value < best_value - EPS:
                    best_value = outcome.value
                    best_move = (name, path)
        if best_move is None:
            return
        state.reroute(*best_move)
