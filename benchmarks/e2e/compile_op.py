"""The compile op, plain and traced, shared by the compile workloads.

The traced variant re-drives ``compile_schedule`` from its public stage
objects so that each stage run is a span and each LP solve a child span
of its stage; nothing under ``src/`` is patched.  Both variants must
give the same verdict and the same Omega digest.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from benchmarks.e2e import spans

from repro.cache import DeltaState, schedule_cache_key
from repro.core.compiler import ScheduledRouting, compile_schedule
from repro.core.io import schedule_to_dict
from repro.core.pipeline import (
    CompilationContext,
    TimeBoundsStage,
    compile_stages,
    verdict_code,
)
from repro.errors import SchedulingError
from repro.mapping.allocation import validate_allocation
from repro.solvers import get_backend
from repro.solvers.base import LPProblemBuilder


def warm_solver() -> None:
    """Pay the scipy/HiGHS import and engine probe outside the timer."""
    builder = LPProblemBuilder(1)
    builder.set_objective([0], [1.0])
    builder.add_eq_rows([1.0], rows=[0], cols=[0], values=[1.0])
    get_backend().solve(builder.build())


def sha(value: Any) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode("utf-8")
    ).hexdigest()


def plain_compile(problem, config, cache=None):
    """One ``compile_schedule`` call; a proven-infeasible verdict is an
    answer, so the error is returned, not raised."""
    try:
        return compile_schedule(*problem, config, cache=cache)
    except SchedulingError as error:
        return error


def compile_outcome(result) -> dict[str, Any]:
    if isinstance(result, SchedulingError):
        return {"verdict": verdict_code(result)}
    return {
        "verdict": "OK",
        "commands": result.schedule.num_commands,
        "digest": sha(schedule_to_dict(result.schedule)),
    }


#: ``CompilerStage.name`` -> span name.
STAGE_SPANS = {
    "assign-paths": "core.assign_paths",
    "assign-paths(lsd)": "core.assign_paths",
    "utilization-gate": "core.utilization_gate",
    "maximal-subsets": "core.subsets",
    "allocate+schedule": "core.intervals",
    "build-schedule": "core.build_schedule",
}

#: Counters :func:`traced_compile` adds up over the traced ops.
COUNTERS = ("core.attempts", "core.stage_runs", "solvers.lp_solves",
            "solvers.lp_iterations", "solvers.lp_failures")


class TracedBackend:
    """An ``LPBackend`` whose solves are child spans of the stage span."""

    def __init__(self, inner, tracer: spans.Tracer) -> None:
        self.inner = inner
        self.tracer = tracer
        self.name = inner.name

    @property
    def tally(self):
        return self.inner.tally

    def solve(self, problem, warm_start=None):
        with self.tracer.span("solvers.lp"):
            return self.inner.solve(problem, warm_start=warm_start)

    def solve_batch(self, problems, warm_starts=None):
        with self.tracer.span("solvers.lp"):
            return self.inner.solve_batch(problems, warm_starts=warm_starts)


def traced_compile(tracer, counters, problem, config, cache=None):
    """``compile_schedule`` step by step, one span per stage run."""
    timing, topology, allocation, tau_in = problem
    validate_allocation(timing.tfg, topology, allocation, exclusive=False)
    key = delta = None
    if cache is not None:
        with tracer.span("cache.key"):
            key = schedule_cache_key(timing, topology, allocation, tau_in,
                                     config)
        with tracer.span("cache.fetch"):
            try:
                hit = cache.fetch(key, topology=topology)
            except SchedulingError as error:
                return error
        if hit is not None:
            return hit
        with tracer.span("cache.delta_state"):
            delta = DeltaState(cache, timing, topology, allocation, tau_in,
                               config)
    backend = TracedBackend(get_backend(config.lp_backend), tracer)
    context = CompilationContext(
        tau_in=tau_in, config=config, backend=backend, timing=timing,
        topology=topology, allocation=allocation, delta=delta,
    )
    with tracer.span("core.time_bounds"):
        TimeBoundsStage().run(context)
    stages = compile_stages(config)
    attempts = 1 + (config.retries if config.use_assign_paths else 0)
    result: Any = None
    for attempt in range(attempts):
        context.reset_attempt(seed=config.seed + attempt,
                              attempt_number=attempt + 1)
        counters["core.attempts"] += 1
        try:
            for stage in stages:
                counters["core.stage_runs"] += 1
                with tracer.span(STAGE_SPANS[stage.name]):
                    stage.run(context)
        except SchedulingError as error:
            result = error
            continue
        result = ScheduledRouting(
            schedule=context.schedule, utilization=context.report,
            bounds=context.bounds, subsets=context.subsets,
            allocations=context.allocations, tau_in=tau_in,
            local_messages=tuple(context.local),
            attempts=context.attempt_number,
        )
        break
    tally = backend.tally
    counters["solvers.lp_solves"] += tally.solves
    counters["solvers.lp_iterations"] += tally.iterations
    counters["solvers.lp_failures"] += tally.failures
    counters["solvers.max_variables"] = max(
        counters["solvers.max_variables"], tally.max_variables
    )
    if cache is not None:
        with tracer.span("cache.store"):
            if isinstance(result, SchedulingError):
                cache.store_failure(key, result)
            else:
                cache.store(key, result)
    return result


def compile_layers(span_list, counters, traced_ops: int) -> dict[str, float]:
    """core.* / solvers.* figures per traced op."""
    table = spans.per_op_ms(span_list)
    own = spans.per_op_ms(span_list, self_time=True)

    def per_op(source, name: str) -> float:
        return spans.ms_per_op(source, name, traced_ops)

    layers = {
        "core.time_bounds_ms": per_op(table, "core.time_bounds"),
        "core.assign_paths_ms": per_op(table, "core.assign_paths"),
        "core.utilization_gate_ms": per_op(table, "core.utilization_gate"),
        "core.subsets_ms": per_op(table, "core.subsets"),
        "core.intervals_ms": per_op(table, "core.intervals"),
        "core.intervals_self_ms": per_op(own, "core.intervals"),
        "core.build_schedule_ms": per_op(table, "core.build_schedule"),
        "solvers.lp_wall_ms": per_op(table, "solvers.lp"),
        "solvers.lp_calls":
            len(spans.durations_ms(span_list, "solvers.lp")) / traced_ops,
        "solvers.max_variables": float(counters["solvers.max_variables"]),
        "core.self_share": core_self_share(span_list),
    }
    for name in COUNTERS:
        layers[name] = counters[name] / traced_ops
    return layers


def core_self_share(span_list) -> float:
    """Self time of core.* spans over the wall of the op spans."""
    own = spans.self_times(span_list)
    core = sum(seconds for span, seconds in zip(span_list, own)
               if span[spans.NAME].startswith("core."))
    wall = sum(span[spans.END] - span[spans.START] for span in span_list
               if span[spans.PARENT] is None)
    return core / wall if wall else 0.0
