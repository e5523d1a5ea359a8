"""The staged SR compilation pipeline (paper Fig. 3 made explicit).

The paper presents scheduled-routing compilation as a staged pipeline —
time bounds → path assignment → utilisation gate → maximal subsets →
message-interval allocation → interval scheduling → switching schedules.
This module gives each box of that figure its own :class:`CompilerStage`
object operating on one shared :class:`CompilationContext` artifact
record, so that retries, the allocation↔scheduling feedback loop,
per-stage profiling and the feasibility matrix's stage-verdict codes all
fall out of one mechanism:

- :func:`compile_stages` declares the per-attempt stage list for a
  config; :func:`run_stages` is the (deliberately dumb) driver;
- every stage times itself through ``context.tracer.stage`` with its
  problem sizes as detail, and the LP stages add their backend's solver
  tally (``lp_solves`` / ``lp_iterations`` / ``lp_wall_ms``) to it; a
  :class:`~repro.trace.tracer.TraceRecorder` keeps each stage run as
  one ``compile`` span — the record the ``repro.serve`` compile farm
  returns with each result and replays as the job's ``stage`` events;
- a stage fails by raising the stage-specific
  :class:`~repro.errors.SchedulingError` subclass; :func:`verdict_code`
  maps any such error to the matrix's verdict abbreviation.

:func:`~repro.core.compiler.compile_schedule` is the public entry point
— it owns input validation, the retry loop, caching, and result
packaging, and drives these stages in between.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Mapping, Protocol, runtime_checkable

from repro.core.assign_paths import assign_paths, lsd_assignment
from repro.core.assignment import PathAssignment
from repro.core.interval_allocation import IntervalAllocation, allocate_intervals
from repro.core.interval_scheduling import IntervalSchedule, schedule_intervals
from repro.core.subsets import maximal_subsets
from repro.core.switching import CommunicationSchedule, build_schedule
from repro.core.timebounds import TimeBoundSet, compute_time_bounds
from repro.core.utilization import (
    CandidateFrame,
    UtilizationReport,
    utilization_report,
)
from repro.errors import (
    IntervalAllocationError,
    IntervalSchedulingError,
    SchedulingError,
    UtilizationExceededError,
)
from repro.solvers.base import LPBackend
from repro.trace.tracer import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle with repro.core.compiler
    from repro.cache.artifacts import DeltaState
    from repro.core.compiler import CompilerConfig
    from repro.tfg.analysis import TFGTiming
    from repro.topology.base import Topology

#: Verdict code when a matrix point compiled.
OK = "OK"

#: Verdict code when a matrix point compiled but the independent
#: conformance analyzer (:mod:`repro.check`) flagged the schedule.
CHECK_FLAGGED = "CHK"

#: ``SchedulingError.stage`` → feasibility-matrix verdict abbreviation.
STAGE_VERDICT_CODES = {
    "utilization": "U>1",
    "interval-allocation": "ALO",
    "interval-scheduling": "SCH",
    "scheduling": "ERR",
}


def verdict_code(error: SchedulingError) -> str:
    """The matrix verdict abbreviation for a compilation failure."""
    return STAGE_VERDICT_CODES.get(getattr(error, "stage", "scheduling"), "ERR")


def routed_and_local_messages(
    timing: "TFGTiming",
    allocation: Mapping[str, int],
) -> tuple[list[str], list[str]]:
    """Split messages into network-traversing and node-local ones."""
    routed: list[str] = []
    local: list[str] = []
    for message in timing.tfg.messages:
        if allocation[message.src] == allocation[message.dst]:
            local.append(message.name)
        else:
            routed.append(message.name)
    return routed, local


@dataclass
class CompilationContext:
    """Everything one compilation knows, inputs and artifacts alike.

    The stage list communicates exclusively through this record: each
    :class:`CompilerStage` reads the artifacts of its predecessors and
    writes its own.  Per-attempt artifacts (assignment onward) are wiped
    by :meth:`reset_attempt` so the retry loop can re-run the attempt
    stages under a fresh seed.
    """

    # Inputs (``timing``/``topology``/``allocation`` may be None when a
    # caller enters the pipeline downstream of path assignment, as the
    # fault-repair engine does).
    tau_in: float
    config: "CompilerConfig"
    tracer: Tracer = NULL_TRACER
    backend: LPBackend | None = None
    timing: "TFGTiming | None" = None
    topology: "Topology | None" = None
    allocation: Mapping[str, int] | None = None
    #: Per-stage artifact broker for delta compilation (attached by
    #: ``compile_schedule`` when a cache is present; ``None`` otherwise,
    #: in which case every stage computes from scratch).
    delta: "DeltaState | None" = None

    # Artifacts, in pipeline order.
    local: list[str] = field(default_factory=list)
    bounds: TimeBoundSet | None = None
    endpoints: dict[str, tuple[int, int]] = field(default_factory=dict)
    #: AssignPaths' per-compile constants; survives :meth:`reset_attempt`.
    frame: CandidateFrame | None = None
    seed: int = 0
    attempt_number: int = 1
    assignment: PathAssignment | None = None
    report: UtilizationReport | None = None
    subsets: list[tuple[str, ...]] = field(default_factory=list)
    allocations: list[IntervalAllocation] = field(default_factory=list)
    interval_schedules: list[dict[int, IntervalSchedule]] = field(
        default_factory=list
    )
    schedule: CommunicationSchedule | None = None

    def reset_attempt(self, seed: int, attempt_number: int) -> None:
        """Wipe per-attempt artifacts before a retry under a new seed."""
        self.seed = seed
        self.attempt_number = attempt_number
        self.assignment = None
        self.report = None
        self.subsets = []
        self.allocations = []
        self.interval_schedules = []
        self.schedule = None


@runtime_checkable
class CompilerStage(Protocol):
    """One box of the paper's Fig. 3.

    A stage mutates the :class:`CompilationContext` in place and fails
    by raising a :class:`~repro.errors.SchedulingError` subclass; it is
    responsible for its own ``context.tracer`` stage (names are part
    of the stage rows' public output and must stay stable).
    """

    name: str

    def run(self, context: CompilationContext) -> None:  # pragma: no cover
        ...


def run_stages(
    stages: tuple[CompilerStage, ...], context: CompilationContext
) -> CompilationContext:
    """Run a stage list over a context; stage errors propagate."""
    for stage in stages:
        stage.run(context)
    return context


class TimeBoundsStage:
    """Split local/routed messages and compute release/deadline windows."""

    name = "time-bounds"

    def run(self, context: CompilationContext) -> None:
        timing, allocation = context.timing, context.allocation
        routed, local = routed_and_local_messages(timing, allocation)
        context.local = local
        with context.tracer.stage(
            self.name, messages=len(routed), local_messages=len(local)
        ):
            context.bounds = compute_time_bounds(
                timing,
                context.tau_in,
                routed,
                extra_duration=context.config.sync_margin,
            )
        context.endpoints = {
            name: (
                allocation[timing.tfg.message(name).src],
                allocation[timing.tfg.message(name).dst],
            )
            for name in routed
        }
        if context.delta is not None:
            # Bounds are cheap to recompute; their content digest keys
            # every artifact downstream.
            context.delta.record_bounds(context.bounds)


class AssignPathsStage:
    """Utilisation-minimising path assignment (the Section 6 heuristic)."""

    name = "assign-paths"

    def run(self, context: CompilationContext) -> None:
        with context.tracer.stage(
            self.name,
            attempt=context.attempt_number,
            messages=len(context.endpoints),
            max_paths=context.config.max_paths,
        ) as detail:
            delta = context.delta
            frame = context.frame
            if frame is None:
                # Built here, not by compile_schedule, so callers that
                # drive the stage objects over their own context get it.
                frame = context.frame = CandidateFrame(
                    context.bounds,
                    context.topology,
                    context.endpoints,
                    context.config.max_paths,
                )
            key: str | None = None
            if delta is not None:
                # The candidate pools feed both the artifact key and (on
                # a miss) the heuristic itself.
                key = delta.assignment_key(frame.pools, context.seed)
                cached = delta.fetch_assignment(
                    key, context.topology, context.endpoints
                )
                if cached is not None:
                    detail["artifact"] = "hit"
                    context.assignment = cached
                    context.report = utilization_report(
                        context.bounds, cached, frame
                    )
                    return
            heuristic = assign_paths(
                context.bounds,
                context.topology,
                context.endpoints,
                seed=context.seed,
                max_paths=context.config.max_paths,
                max_restarts=context.config.max_restarts,
                frame=frame,
            )
            if delta is not None and key is not None:
                detail["artifact"] = "store"
                delta.store_assignment(key, heuristic.assignment)
        context.assignment = heuristic.assignment
        context.report = heuristic.report


class LsdAssignmentStage:
    """Deterministic LSD→MSD routing (the Fig. 5/6 baseline)."""

    name = "assign-paths(lsd)"

    def run(self, context: CompilationContext) -> None:
        with context.tracer.stage(
            self.name,
            attempt=context.attempt_number,
            messages=len(context.endpoints),
        ):
            context.assignment = lsd_assignment(
                context.topology, context.endpoints
            )
            context.report = utilization_report(
                context.bounds, context.assignment
            )


class UtilizationGateStage:
    """Reject U > 1 before any LP work (paper Section 5.1)."""

    name = "utilization-gate"

    def run(self, context: CompilationContext) -> None:
        report = context.report
        if not report.feasible:
            raise UtilizationExceededError(
                report.peak,
                witness=f"{report.witness_kind} {report.witness_link}",
            )


class MaximalSubsetsStage:
    """Partition messages into maximal subsets of overlapping windows."""

    name = "maximal-subsets"

    def run(self, context: CompilationContext) -> None:
        with context.tracer.stage(
            self.name, attempt=context.attempt_number
        ) as detail:
            context.subsets = maximal_subsets(
                context.bounds, context.assignment
            )
            detail["subsets"] = len(context.subsets)


class IntervalStage:
    """Allocation LP + interval-scheduling LP, with the feedback loop.

    Runs the paper's Fig. 3 feedback arrow per maximal subset: when
    interval scheduling reports an unpackable interval, the allocation
    LP is re-solved with the congested interval's total demand capped
    below the overflow.  Each subset gets its own traced stage
    (``allocate+schedule[i]``), whose detail includes the LP backend's
    solve/iteration/wall-time tally for exactly that subset.
    """

    name = "allocate+schedule"

    def run(self, context: CompilationContext) -> None:
        bounds = context.bounds
        num_intervals = len(bounds.intervals.lengths)
        delta = context.delta
        for index, subset in enumerate(context.subsets):
            with context.tracer.stage(
                f"{self.name}[{index}]",
                attempt=context.attempt_number,
                messages=len(subset),
                lp_vars=len(subset) * num_intervals,
            ) as detail:
                key: str | None = None
                if delta is not None:
                    key = delta.subset_key(
                        bounds, context.assignment, subset, index
                    )
                    # Raises the recorded stage error on a negative hit,
                    # replaying the live feedback loop byte-identically.
                    cached = delta.fetch_subset(key, subset)
                    if cached is not None:
                        detail["artifact"] = "hit"
                        interval_allocation, schedules = cached
                        context.allocations.append(interval_allocation)
                        context.interval_schedules.append(schedules)
                        continue
                before = (
                    replace(context.backend.tally)
                    if context.backend is not None
                    else None
                )
                try:
                    interval_allocation, schedules = (
                        self._allocate_with_feedback(context, subset, index)
                    )
                except (
                    IntervalAllocationError,
                    IntervalSchedulingError,
                ) as error:
                    if delta is not None and key is not None:
                        delta.store_subset_failure(key, error)
                    raise
                if before is not None:
                    detail.update(context.backend.tally.since(before))
                if delta is not None and key is not None:
                    detail["artifact"] = "store"
                    delta.store_subset(key, interval_allocation, schedules)
            context.allocations.append(interval_allocation)
            context.interval_schedules.append(schedules)

    @staticmethod
    def _allocate_with_feedback(
        context: CompilationContext,
        subset: tuple[str, ...],
        index: int,
    ) -> tuple[IntervalAllocation, dict[int, IntervalSchedule]]:
        """Allocation ↔ interval-scheduling loop for one maximal subset.

        Raises the *first* scheduling error when the feedback budget runs
        out, or the allocation error if a cap makes the LP infeasible.
        """
        caps: dict[int, float] = {}
        first_error: IntervalSchedulingError | None = None
        for _ in range(context.config.feedback_rounds + 1):
            interval_allocation = allocate_intervals(
                context.bounds,
                context.assignment,
                subset,
                subset_index=index,
                interval_caps=caps or None,
                backend=context.backend,
            )
            try:
                schedules = schedule_intervals(
                    context.assignment,
                    interval_allocation,
                    context.bounds.intervals.lengths,
                    backend=context.backend,
                )
                return interval_allocation, schedules
            except IntervalSchedulingError as error:
                if first_error is None:
                    first_error = error
                k = error.interval_index
                current = sum(interval_allocation.per_interval(k).values())
                overflow = error.required - error.available
                caps[k] = min(
                    caps.get(k, float("inf")),
                    current - overflow * 1.05,
                )
        assert first_error is not None
        raise first_error


class BuildScheduleStage:
    """Assemble the node switching schedules Omega and validate them."""

    name = "build-schedule"

    def run(self, context: CompilationContext) -> None:
        with context.tracer.stage(
            self.name, attempt=context.attempt_number
        ) as detail:
            context.schedule = build_schedule(
                context.bounds, context.assignment, context.interval_schedules
            )
            detail["commands"] = context.schedule.num_commands


#: Stages downstream of path assignment — shared by a fresh compile and
#: the fault-repair engine's local repair.
POST_ASSIGNMENT_STAGES: tuple[CompilerStage, ...] = (
    UtilizationGateStage(),
    MaximalSubsetsStage(),
    IntervalStage(),
    BuildScheduleStage(),
)


def compile_stages(config: "CompilerConfig") -> tuple[CompilerStage, ...]:
    """The per-attempt stage list for a config (paper Fig. 3)."""
    assigner: CompilerStage = (
        AssignPathsStage() if config.use_assign_paths else LsdAssignmentStage()
    )
    return (assigner, *POST_ASSIGNMENT_STAGES)
