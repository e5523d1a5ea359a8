"""The end-to-end scheduled-routing compiler (paper Fig. 3).

``compile_schedule`` drives the explicit stage pipeline declared in
:mod:`repro.core.pipeline` — time bounds → path assignment →
peak-utilisation gate → maximal subsets → message-interval allocation →
interval scheduling → node switching schedules — and machine-validates
the result.  Failures raise the stage-specific
:class:`~repro.errors.SchedulingError` subclasses; the compiler retries
the downstream stages under fresh path-assignment seeds (the feedback
between steps the paper's concluding remarks propose).

The LP stages solve through the backend named by
``CompilerConfig.lp_backend`` (see :mod:`repro.solvers`); an optional
:class:`~repro.cache.ScheduleCache` short-circuits whole compilations
whose content-addressed inputs were seen before.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.core.assignment import PathAssignment
from repro.core.interval_allocation import IntervalAllocation
from repro.core.pipeline import (
    POST_ASSIGNMENT_STAGES,
    CompilationContext,
    TimeBoundsStage,
    compile_stages,
    routed_and_local_messages,
    run_stages,
)
from repro.core.switching import CommunicationSchedule
from repro.core.timebounds import TimeBoundSet, require_sync_margin
from repro.core.utilization import UtilizationReport
from repro.errors import SchedulingError
from repro.mapping.allocation import validate_allocation
from repro.solvers import BACKEND_NAMES, get_backend
from repro.tfg.analysis import TFGTiming
from repro.topology.base import Topology
from repro.trace.tracer import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.store import ScheduleCache

__all__ = [
    "CompilerConfig",
    "ScheduledRouting",
    "compile_schedule",
    "routed_and_local_messages",
    "schedule_from_assignment",
]


@dataclass(frozen=True)
class CompilerConfig:
    """Knobs of the scheduled-routing compiler.

    Every field is part of a compilation's identity: each one is hashed
    into the cache keys (:func:`repro.cache.keys.canonical_config`) and
    each one is a serve override.

    Attributes
    ----------
    seed:
        Base seed for the path-assignment heuristic.
    use_assign_paths:
        When False, messages stay on their LSD->MSD routes (the Fig. 5/6
        baseline); the heuristic is skipped.
    max_paths, max_restarts:
        Forwarded to :func:`~repro.core.assign_paths.assign_paths`.
    retries:
        Additional full-pipeline attempts under different assignment seeds
        when a downstream LP fails.  Ignored for LSD->MSD assignments,
        which are deterministic.
    feedback_rounds:
        Per-subset allocation <-> interval-scheduling feedback iterations
        (the paper's Fig. 3 feedback arrow): when an interval proves
        unpackable, the allocation LP is re-solved with the congested
        interval's total demand capped below the overflow, pushing work
        into the message windows' other intervals.
    sync_margin:
        CP clock-synchronization guard added to every message's
        transmission requirement (concluding-remarks extension), in
        microseconds.
    lp_backend:
        Name of the LP solver backend both LP stages use (see
        :func:`repro.solvers.get_backend`): ``"auto"`` (default —
        scipy's HiGHS when available, the pure-Python reference simplex
        otherwise), ``"highs"`` or ``"reference"``.

    A value no compile can run (``max_paths < 1``, a negative count, a
    negative or non-finite ``sync_margin``, an unknown backend) raises
    :class:`ValueError` here, not mid-compile.
    """

    seed: int = 0
    use_assign_paths: bool = True
    max_paths: int = 48
    max_restarts: int = 4
    retries: int = 2
    feedback_rounds: int = 2
    sync_margin: float = 0.0
    lp_backend: str = "auto"

    def __post_init__(self) -> None:
        if self.max_paths < 1:
            raise ValueError(f"max_paths must be >= 1, got {self.max_paths}")
        for name in ("max_restarts", "retries", "feedback_rounds"):
            if getattr(self, name) < 0:
                raise ValueError(
                    f"{name} must be >= 0, got {getattr(self, name)}"
                )
        require_sync_margin(self.sync_margin)
        if self.lp_backend not in BACKEND_NAMES:
            raise ValueError(
                f"lp_backend must be one of {', '.join(BACKEND_NAMES)}, "
                f"got {self.lp_backend!r}"
            )


@dataclass
class ScheduledRouting:
    """A successfully compiled scheduled-routing solution.

    Carries the communication schedule Omega plus every intermediate
    artifact an experiment may want to report.
    """

    schedule: CommunicationSchedule
    utilization: UtilizationReport
    bounds: TimeBoundSet
    subsets: list[tuple[str, ...]]
    allocations: list[IntervalAllocation]
    tau_in: float
    local_messages: tuple[str, ...]
    attempts: int = 1
    extra: dict = field(default_factory=dict)

    @property
    def paths(self) -> dict[str, tuple[int, ...]]:
        """Final message -> node-path mapping."""
        return dict(self.schedule.assignment)

    def __repr__(self) -> str:
        return (
            f"<ScheduledRouting tau_in={self.tau_in:.3f} "
            f"U={self.utilization.peak:.3f} "
            f"commands={self.schedule.num_commands}>"
        )


def compile_schedule(
    timing: TFGTiming,
    topology: Topology,
    allocation: Mapping[str, int],
    tau_in: float,
    config: CompilerConfig | None = None,
    tracer: Tracer = NULL_TRACER,
    cache: "ScheduleCache | None" = None,
) -> ScheduledRouting:
    """Compile a contention-free communication schedule for one period.

    Pass a :class:`~repro.trace.tracer.TraceRecorder` to record each
    stage run's wall time and problem sizes as a ``compile`` span
    (:func:`~repro.trace.export.stage_table` renders them).  LP solver
    totals (backend name, solves, iterations, wall time) always land in
    ``extra["solver_stats"]``.

    Pass a :class:`~repro.cache.ScheduleCache` to reuse prior results:
    the compilation inputs are content-hashed and a hit returns the
    stored schedule (or re-raises the stored failure) without running
    any stage.

    Raises the stage-specific :class:`~repro.errors.SchedulingError`
    subclass of the *last* failed attempt when no attempt succeeds:
    :class:`~repro.errors.UtilizationExceededError` when the requirements
    exceed link capacity, :class:`~repro.errors.IntervalAllocationError`
    or :class:`~repro.errors.IntervalSchedulingError` when an LP stage
    fails.
    """
    config = config or CompilerConfig()
    validate_allocation(timing.tfg, topology, allocation, exclusive=False)

    key = ""  # set iff a cache is attached
    delta = None
    if cache is not None:
        from repro.cache.artifacts import DeltaState
        from repro.cache.keys import schedule_cache_key

        key = schedule_cache_key(timing, topology, allocation, tau_in, config)
        hit = cache.fetch(key, topology=topology)
        if hit is not None:
            return hit
        # Monolithic miss: compile with per-stage artifact reuse, so a
        # near-identical instance resumes mid-pipeline instead of cold.
        delta = DeltaState(cache, timing, topology, allocation, tau_in, config)

    context = CompilationContext(
        tau_in=tau_in,
        config=config,
        tracer=tracer,
        backend=get_backend(config.lp_backend),
        timing=timing,
        topology=topology,
        allocation=allocation,
        delta=delta,
    )
    TimeBoundsStage().run(context)

    stages = compile_stages(config)
    attempts = 1 + (config.retries if config.use_assign_paths else 0)
    last_error: SchedulingError | None = None
    for attempt in range(attempts):
        context.reset_attempt(
            seed=config.seed + attempt, attempt_number=attempt + 1
        )
        try:
            run_stages(stages, context)
        except SchedulingError as error:
            last_error = error
        else:
            routing = _package(context)
            if cache is not None:
                cache.store(key, routing)
            return routing
    assert last_error is not None
    if cache is not None:
        cache.store_failure(key, last_error)
    raise last_error


def schedule_from_assignment(
    bounds: TimeBoundSet,
    assignment: PathAssignment,
    report: UtilizationReport,
    tau_in: float,
    local: list[str],
    config: CompilerConfig,
) -> ScheduledRouting:
    """Run the post-assignment compiler stages for a fixed path assignment.

    This is the downstream half of :func:`compile_schedule` — utilisation
    gate, maximal subsets, interval allocation/scheduling with feedback,
    and Omega assembly.  The schedule-repair engine
    (:mod:`repro.faults.repair`) calls it directly after locally
    re-assigning only the fault-affected messages, so a repair reuses the
    exact machinery (and validation) of a fresh compile.
    """
    context = CompilationContext(
        tau_in=tau_in,
        config=config,
        backend=get_backend(config.lp_backend),
    )
    context.bounds = bounds
    context.local = list(local)
    context.assignment = assignment
    context.report = report
    run_stages(POST_ASSIGNMENT_STAGES, context)
    return _package(context)


def _package(context: CompilationContext) -> ScheduledRouting:
    """Assemble the final result object from a completed context."""
    assert context.schedule is not None
    assert context.report is not None and context.bounds is not None
    routing = ScheduledRouting(
        schedule=context.schedule,
        utilization=context.report,
        bounds=context.bounds,
        subsets=context.subsets,
        allocations=context.allocations,
        tau_in=context.tau_in,
        local_messages=tuple(context.local),
        attempts=context.attempt_number,
    )
    backend = context.backend
    if backend is not None:
        routing.extra["solver_stats"] = {
            "backend": backend.name,
            **backend.tally.as_dict(),
        }
    return routing
