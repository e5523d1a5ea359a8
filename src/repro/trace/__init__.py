"""Structured tracing for runs and compilations.

- :mod:`repro.trace.tracer` — the event model: :class:`TraceEvent`,
  the no-op :class:`Tracer` / :data:`NULL_TRACER`, and the in-memory
  :class:`TraceRecorder` (whose :meth:`~TraceRecorder.stage` times the
  compiler's stages as ``compile`` spans);
- :mod:`repro.trace.export` — Chrome/Perfetto ``trace.json`` export,
  and the ``compile`` spans as stage rows or a stage table.

Quick use::

    from repro.trace import TraceRecorder, write_chrome_trace

    tracer = TraceRecorder()
    result = executor.run(invocations=12, tracer=tracer)
    write_chrome_trace(tracer.events, "trace.json")   # open in Perfetto
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "NULL_TRACER": "tracer",
    "TraceEvent": "tracer",
    "Tracer": "tracer",
    "TraceRecorder": "tracer",
    "stage_rows": "export",
    "stage_table": "export",
    "to_chrome_trace": "export",
    "write_chrome_trace": "export",
})
