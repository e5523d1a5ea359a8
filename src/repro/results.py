"""The unified run API: :class:`RunConfig` in, :class:`RunResult` out.

Every way of executing a pipelined TFG — the wormhole simulators, the
scheduled-routing executor, and the faults comparator that drives both —
historically grew its own keyword soup and its own result shape.  This
module is the single contract:

- :class:`RunConfig` is the keyword-only bundle of run parameters
  (invocations, warm-up, seed, fault trace, tracer, ...) accepted
  uniformly by :meth:`ScheduledRoutingExecutor.run`,
  :meth:`WormholeSimulator.run` (and subclasses), the faults
  comparator, and the CLI;
- :class:`RunResult` is the one measured-behaviour shape
  (completion times, intervals, latencies, jitter, ``has_oi``,
  optional ``trace``) that metrics, report, and viz code consume.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.metrics.series import (
    SpikeStats,
    has_output_inconsistency,
    normalized_latency_stats,
    normalized_throughput_stats,
    output_intervals,
)
from repro.trace.tracer import NULL_TRACER, Tracer, TraceRecorder

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.models import FaultTrace
    from repro.metrics.jitter import JitterReport

#: Every runner needs this many measured (post-warmup) invocations for
#: its steady-state throughput and output-consistency statistics.
MIN_MEASURED_INVOCATIONS = 4


def require_measured(
    invocations: int, warmup: int, error: type[Exception]
) -> None:
    """Raise ``error`` unless ``invocations - warmup`` reaches
    :data:`MIN_MEASURED_INVOCATIONS`."""
    if invocations - warmup < MIN_MEASURED_INVOCATIONS:
        raise error(
            f"need >= {MIN_MEASURED_INVOCATIONS} measured invocations, "
            f"got {invocations} with warmup={warmup}"
        )


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    """Keyword-only bundle of run parameters, shared by every run path.

    Attributes
    ----------
    invocations:
        Number of periodic invocations to execute.
    warmup:
        Leading invocations excluded from statistics while the pipeline
        fills.  Every runner requires ``invocations - warmup >=``
        :data:`MIN_MEASURED_INVOCATIONS`.
    seed:
        Deterministic seed consumed by the layers above the runner
        (fault-trace generation, random/annealed allocation, compiler
        retries); the runners themselves are deterministic.
    fault_trace:
        Injected machine degradation (link outages, clock drift);
        ``None`` runs the healthy machine.
    tracer:
        Structured event sink (:mod:`repro.trace`).  The default
        :data:`~repro.trace.tracer.NULL_TRACER` records nothing and
        costs one boolean check per potential event.
    max_recoveries:
        Wormhole-only deadlock-recovery budget (``None`` = the
        simulator's default); ignored by the SR executor.
    """

    invocations: int = 40
    warmup: int = 8
    seed: int = 0
    fault_trace: "FaultTrace | None" = None
    tracer: Tracer = NULL_TRACER
    max_recoveries: int | None = None

    def replace(self, **changes: Any) -> "RunConfig":
        """A copy with the given fields changed."""
        return dataclasses.replace(self, **changes)


def resolve_run_config(config: RunConfig | None, **legacy: Any) -> RunConfig:
    """Merge a ``config`` object with legacy per-call keyword arguments.

    Runners keep their pre-:class:`RunConfig` keyword signatures as thin
    shims: any legacy argument explicitly passed (not ``None``) overrides
    the corresponding :class:`RunConfig` field, so old call sites behave
    exactly as before while new ones pass a single ``config``.
    """
    resolved = config if config is not None else RunConfig()
    changes = {key: value for key, value in legacy.items() if value is not None}
    return resolved.replace(**changes) if changes else resolved


@dataclass(frozen=True)
class RunResult:
    """Measured behaviour of one pipelined run (WR and SR alike).

    Attributes
    ----------
    tau_in:
        Input arrival period used for the run.
    completion_times:
        Absolute completion instant of each invocation (all invocations,
        including warm-up).
    warmup:
        Number of leading invocations excluded from the statistics while
        the pipeline fills.
    critical_path_length:
        The TFG's Lambda, the normalized-latency denominator.
    technique:
        ``"wormhole"`` or ``"scheduled"`` — which routing produced the run.
    extra:
        Free-form per-technique diagnostics (recoveries, link busy
        times, fault events...).
    trace:
        The run's :class:`~repro.trace.tracer.TraceRecorder` when the
        run was traced, else ``None``.
    """

    tau_in: float
    completion_times: tuple[float, ...]
    warmup: int
    critical_path_length: float
    technique: str = "wormhole"
    extra: dict = field(default_factory=dict, compare=False)
    trace: TraceRecorder | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {self.warmup}")
        if len(self.completion_times) - self.warmup < 3:
            raise ValueError(
                "need at least 3 post-warmup invocations to measure intervals "
                f"(got {len(self.completion_times)} with warmup={self.warmup})"
            )

    # -- measured series -----------------------------------------------------

    @property
    def measured_completions(self) -> tuple[float, ...]:
        """Completion times after the warm-up window."""
        return self.completion_times[self.warmup:]

    @property
    def intervals(self) -> list[float]:
        """Output-generation intervals (the paper's delta_out series)."""
        return output_intervals(self.measured_completions)

    @property
    def latencies(self) -> list[float]:
        """Per-invocation latency: completion minus that invocation's
        input-arrival instant ``j * tau_in``."""
        return [
            t - (self.warmup + j) * self.tau_in
            for j, t in enumerate(self.measured_completions)
        ]

    # -- paper-normalized statistics ---------------------------------------

    def throughput_stats(self) -> SpikeStats:
        """Normalized throughput spike (tau_in / tau_out)."""
        return normalized_throughput_stats(self.intervals, self.tau_in)

    def latency_stats(self) -> SpikeStats:
        """Normalized latency spike (lambda / Lambda)."""
        return normalized_latency_stats(self.latencies, self.critical_path_length)

    def has_oi(self) -> bool:
        """Output inconsistency: output intervals not all equal to tau_in."""
        return has_output_inconsistency(self.intervals, self.tau_in)

    def jitter(self) -> "JitterReport":
        """Magnitude of the output-timing irregularity (post warm-up).

        Returns a :class:`~repro.metrics.jitter.JitterReport`; a run free
        of output inconsistency has zero peak-to-peak jitter.
        """
        from repro.metrics.jitter import jitter_report

        return jitter_report(self.measured_completions, self.tau_in)

    def __repr__(self) -> str:
        thr = self.throughput_stats()
        return (
            f"<{type(self).__name__} {self.technique} tau_in={self.tau_in:.3f} "
            f"throughput=[{thr.minimum:.3f},{thr.mean:.3f},{thr.maximum:.3f}] "
            f"oi={self.has_oi()}>"
        )
