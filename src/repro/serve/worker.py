"""Worker-process side of the compile farm.

:func:`execute_request` is the single entry point a
:class:`~repro.pool.GracefulPool` worker runs.  It is deliberately a
module-level function over plain-JSON payloads: task dicts in, result
dicts out, so nothing but builtins crosses the process boundary (no
pickled schedules, no live topology objects).

Each worker process keeps **one** :class:`~repro.cache.ScheduleCache`
per cache directory for its whole life
(:func:`~repro.cache.store.process_cache`): the memory
tier warms up across tasks, while the shared disk tier makes results
visible to the service front-end and to sibling workers: the schedule or
failure entry is the one file a task creates (the path the front-end's
memo check probes), its stage artifacts are lines of the directory's pack
(see :mod:`repro.cache.store`).  Per-task
cache-counter deltas (``cache.stats - before``, a
:class:`~collections.Counter` keyed ``"<scope>.<event>"``) ride back on
every result so the service can aggregate totals that sum correctly.

The result is the task's one channel back: a compile's ``compile``
spans ride in ``result["profile"]`` as
:func:`~repro.trace.export.stage_rows`, on a feasible and an infeasible
result alike, and the service turns them into the job's ``stage``
events when the result arrives.  A cache hit runs no stage and so
carries no profile.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.cache.store import ScheduleCache, process_cache
from repro.core.compiler import compile_schedule
from repro.core.pipeline import verdict_code
from repro.errors import SchedulingError
from repro.experiments.setup import ExperimentSetup
from repro.serve.jobs import JobRequest
from repro.trace.export import stage_rows
from repro.trace.tracer import TraceRecorder

__all__ = ["execute_request"]


def _compile_result(
    request: JobRequest,
    setup: ExperimentSetup,
    tau_in: float,
    cache: ScheduleCache | None,
    tracer: TraceRecorder,
) -> dict[str, Any]:
    """Run a ``compile`` (or the compile half of a ``check``) task."""
    try:
        routing = compile_schedule(
            setup.timing,
            setup.topology,
            setup.allocation,
            tau_in,
            request.compiler_config(),
            tracer=tracer,
            cache=cache,
        )
    except SchedulingError as error:
        return {
            "feasible": False,
            "verdict": verdict_code(error),
            "error_type": type(error).__name__,
            "detail": str(error),
            "tau_in": tau_in,
        }
    result: dict[str, Any] = {
        "feasible": True,
        "verdict": "OK",
        "tau_in": tau_in,
        "utilization": routing.utilization.peak,
        "subsets": len(routing.subsets),
        "commands": routing.schedule.num_commands,
        "nodes": len(routing.schedule.node_schedules),
        "attempts": routing.attempts,
        "cache_hit": bool(routing.extra.get("cache", {}).get("hit", False)),
    }
    if routing.extra.get("solver_stats") is not None:
        result["solver_stats"] = dict(routing.extra["solver_stats"])
    if request.kind == "check":
        from repro.check.analyzer import analyze_schedule

        report = analyze_schedule(
            routing.schedule,
            setup.topology,
            timing=setup.timing,
            allocation=setup.allocation,
            sync_margin=request.compiler_config().sync_margin,
        )
        result["check"] = report.to_dict()
        if not report.ok:
            result["verdict"] = "CHK"
    return result


def _diagnose_result(
    request: JobRequest,
    setup: ExperimentSetup,
    tau_in: float,
    cache: ScheduleCache | None,
) -> dict[str, Any]:
    from repro.diagnose.instance import diagnose_instance

    diagnosis = diagnose_instance(
        setup.timing,
        setup.topology,
        setup.allocation,
        tau_in,
        sync_margin=request.compiler_config().sync_margin,
        cache=cache,
    )
    return {
        "feasible": not diagnosis.refuted,
        "verdict": "REF" if diagnosis.refuted else "OK",
        "tau_in": tau_in,
        "diagnosis": diagnosis.to_dict(),
    }


def execute_request(task: Mapping[str, Any]) -> dict[str, Any]:
    """Execute one farm task; the pool's target function.

    ``task`` is ``{"request", "cache_dir"}``: the request's canonical
    form and the shared cache directory.  The returned dict is
    JSON-able end to end and always includes ``cache_stats`` — this
    task's cache-counter *deltas* for the service to aggregate.
    """
    request = JobRequest.from_canonical(task["request"])
    cache = process_cache(task.get("cache_dir"))
    before = cache.stats.copy() if cache is not None else None
    setup = request.build()
    tau_in = setup.tau_in_for_load(request.load)
    tracer = TraceRecorder()
    if request.kind == "diagnose":
        result = _diagnose_result(request, setup, tau_in, cache)
    else:
        result = _compile_result(request, setup, tau_in, cache, tracer)
    stages = stage_rows(tracer.events)
    if stages:
        result["profile"] = {"stages": stages}
    if cache is not None and before is not None:
        result["cache_stats"] = cache.stats - before
    return result
