"""Compiler profiling: per-stage wall time and problem sizes.

As experiment matrices grow, the scheduled-routing compiler dominates
wall-clock cost; this module answers *where*.  A :class:`CompileProfiler`
is passed to :func:`~repro.core.compiler.compile_schedule`; every stage
wraps itself in :meth:`CompileProfiler.stage` and attaches structured
detail (message counts, LP variable counts).  The result renders as a
text table or as ``compile``-category trace events alongside a run trace,
and crosses process boundaries as :meth:`CompileProfile.to_dict` (the
serve worker's ``result["profile"]``, whose stages the service replays
as a job's ``stage`` events).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from repro.trace.tracer import TraceEvent


def _json_safe(value: Any) -> Any:
    """Coerce a stage-detail value into a JSON-representable one.

    Stage details are almost always numbers and strings; anything
    exotic (tuples, sets, objects) is flattened so profiles can cross
    process boundaries as JSON instead of pickles.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_json_safe(v) for v in value)
    if isinstance(value, Mapping):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return repr(value)


@dataclass(frozen=True)
class StageProfile:
    """One profiled compiler stage."""

    stage: str
    wall_ms: float
    start_ms: float
    detail: Mapping[str, Any] = field(default_factory=dict)

    def describe_detail(self) -> str:
        """``key=value`` rendering of the stage detail."""
        return " ".join(f"{k}={v}" for k, v in self.detail.items())

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready payload (wire transfer, a job's ``stage`` events)."""
        return {
            "stage": self.stage,
            "wall_ms": self.wall_ms,
            "start_ms": self.start_ms,
            "detail": {k: _json_safe(v) for k, v in self.detail.items()},
        }


@dataclass(frozen=True)
class CompileProfile:
    """All stages of one compilation, in execution order."""

    stages: tuple[StageProfile, ...]

    @property
    def total_ms(self) -> float:
        return sum(stage.wall_ms for stage in self.stages)

    def table(self) -> str:
        """Text table of stage timings (CLI / benchmark output)."""
        from repro.report import format_table

        total = self.total_ms or 1.0
        rows = [
            (
                stage.stage,
                f"{stage.wall_ms:.2f}",
                f"{stage.wall_ms / total:6.1%}",
                stage.describe_detail(),
            )
            for stage in self.stages
        ]
        rows.append(("TOTAL", f"{self.total_ms:.2f}", "100.0%", ""))
        return format_table(
            ("stage", "wall ms", "share", "detail"),
            rows,
            title="compile profile",
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready payload: ``{"stages": [...]}``."""
        return {"stages": [stage.to_dict() for stage in self.stages]}

    def trace_events(self) -> list[TraceEvent]:
        """The profile as ``compile``-category spans (wall-clock us,
        re-based to the profiler's start) for the Chrome exporter."""
        return [
            TraceEvent(
                category="compile",
                name=stage.stage,
                time=stage.start_ms * 1000.0,
                duration=max(stage.wall_ms, 1e-3) * 1000.0,
                track="compiler",
                args=dict(stage.detail),
            )
            for stage in self.stages
        ]


class CompileProfiler:
    """Collects :class:`StageProfile` records during a compilation.

    Nested/repeated stage names are fine (retry attempts, per-subset
    LP solves each record their own row).
    """

    def __init__(self) -> None:
        self._origin = time.perf_counter()
        self._stages: list[StageProfile] = []

    @contextmanager
    def stage(self, name: str, **detail: Any) -> Iterator[dict]:
        """Profile one stage; mutate the yielded dict to add late detail
        (sizes known only after the stage body ran)."""
        late: dict[str, Any] = dict(detail)
        start = time.perf_counter()
        try:
            yield late
        finally:
            end = time.perf_counter()
            profile = StageProfile(
                stage=name,
                wall_ms=(end - start) * 1000.0,
                start_ms=(start - self._origin) * 1000.0,
                detail=late,
            )
            self._stages.append(profile)

    @property
    def profile(self) -> CompileProfile:
        return CompileProfile(stages=tuple(self._stages))


class NullProfiler:
    """No-op stand-in accepted wherever a :class:`CompileProfiler` is."""

    @contextmanager
    def stage(self, name: str, **detail: Any) -> Iterator[dict]:
        yield dict(detail)  # mutations go nowhere

    @property
    def profile(self) -> CompileProfile:
        return CompileProfile(stages=())


#: Shared null profiler (stateless); the compiler's default.
NULL_PROFILER = NullProfiler()
