"""Structured tracing & profiling for runs and compilations.

- :mod:`repro.trace.tracer` — the event model: :class:`TraceEvent`,
  the no-op :class:`Tracer` / :data:`NULL_TRACER`, and the in-memory
  :class:`TraceRecorder`;
- :mod:`repro.trace.export` — Chrome/Perfetto ``trace.json`` export;
- :mod:`repro.trace.profile` — compiler stage wall-time/LP-size
  profiling.

Quick use::

    from repro.trace import TraceRecorder, write_chrome_trace
    from repro.results import RunConfig

    tracer = TraceRecorder()
    result = executor.run(config=RunConfig(invocations=12, tracer=tracer))
    write_chrome_trace(tracer.events, "trace.json")   # open in Perfetto
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "CompileProfile": "profile",
    "CompileProfiler": "profile",
    "NULL_PROFILER": "profile",
    "NULL_TRACER": "tracer",
    "NullProfiler": "profile",
    "StageProfile": "profile",
    "TraceEvent": "tracer",
    "Tracer": "tracer",
    "TraceRecorder": "tracer",
    "to_chrome_trace": "export",
    "write_chrome_trace": "export",
})
