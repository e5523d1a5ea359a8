"""Trace exporters: Chrome/Perfetto ``trace.json`` and compile stages.

The Chrome trace event format (the JSON array flavour understood by
``chrome://tracing`` and https://ui.perfetto.dev) maps cleanly onto our
events: every :class:`~repro.trace.tracer.TraceEvent` track becomes one
named thread, spans become complete (``"ph": "X"``) events and instants
become ``"ph": "i"`` events.  Model time is microseconds, which is also
the format's timestamp unit, so timestamps pass through unscaled.

The ``compile`` spans (one per compiler stage run) also render as JSON
rows (:func:`stage_rows`, the serve worker's ``result["profile"]``) and
as a text table (:func:`stage_table`, ``repro-sr trace --mode sr``).
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Mapping

from repro.trace.tracer import TraceEvent

#: Synthetic process ids: simulation tracks vs compiler tracks.
SIM_PID = 1
COMPILE_PID = 2


def _sort_key(track: str) -> tuple:
    """Stable, human-friendly track ordering: links first, grouped."""
    return (track.split()[0] if track else "", track)


def to_chrome_trace(events: Iterable[TraceEvent]) -> dict:
    """Render events as a Chrome trace object (``{"traceEvents": [...]}``).

    One named thread per track; events with an empty track land on a
    catch-all ``"(run)"`` thread.  ``compile``-category events get their
    own process so wall-clock compiler time never visually interleaves
    with model time.
    """
    events = list(events)
    tracks: dict[tuple[int, str], int] = {}
    trace_events: list[dict] = []

    def tid_for(pid: int, track: str) -> int:
        key = (pid, track)
        if key not in tracks:
            tracks[key] = len(tracks) + 1
        return tracks[key]

    for event in events:
        pid = COMPILE_PID if event.category == "compile" else SIM_PID
        tid = tid_for(pid, event.track or "(run)")
        record = {
            "name": event.name,
            "cat": event.category,
            "pid": pid,
            "tid": tid,
            "ts": event.time,
            "args": dict(event.args),
        }
        if event.is_span:
            record["ph"] = "X"
            record["dur"] = event.duration
        else:
            record["ph"] = "i"
            record["s"] = "t"  # thread-scoped instant
        trace_events.append(record)

    metadata: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": SIM_PID,
            "args": {"name": "simulation (model us)"},
        },
        {
            "name": "process_name",
            "ph": "M",
            "pid": COMPILE_PID,
            "args": {"name": "compiler (wall time)"},
        },
    ]
    for (pid, track), tid in sorted(
        tracks.items(), key=lambda item: (item[0][0], _sort_key(item[0][1]))
    ):
        metadata.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": track},
            }
        )
        metadata.append(
            {
                "name": "thread_sort_index",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"sort_index": tid},
            }
        )

    return {"traceEvents": metadata + trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(events: Iterable[TraceEvent], path: str) -> str:
    """Write a Perfetto-loadable ``trace.json``; returns ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(to_chrome_trace(events), handle, default=str)
    return path


def _json_safe(value: Any) -> Any:
    """Coerce a stage-detail value into a JSON-representable one.

    Stage details are almost always numbers and strings; anything
    exotic (tuples, sets, objects) is flattened so stage rows can cross
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


def stage_rows(events: Iterable[TraceEvent]) -> list[dict[str, Any]]:
    """The ``compile`` spans as ``{"stage", "wall_ms", "start_ms",
    "detail"}`` dicts with JSON-safe detail, in execution order."""
    return [
        {
            "stage": span.name,
            "wall_ms": span.duration / 1000.0,
            "start_ms": span.time / 1000.0,
            "detail": {k: _json_safe(v) for k, v in span.args.items()},
        }
        for span in events
        if span.category == "compile"
    ]


def stage_table(events: Iterable[TraceEvent]) -> str:
    """Text table of the ``compile`` spans: wall time, share, detail."""
    from repro.report.tables import format_table

    spans = [span for span in events if span.category == "compile"]
    total_ms = sum(span.duration for span in spans) / 1000.0
    total = total_ms or 1.0
    rows = [
        (
            span.name,
            f"{span.duration / 1000.0:.2f}",
            f"{span.duration / 1000.0 / total:6.1%}",
            " ".join(f"{k}={v}" for k, v in span.args.items()),
        )
        for span in spans
    ]
    rows.append(("TOTAL", f"{total_ms:.2f}", "100.0%", ""))
    return format_table(
        ("stage", "wall ms", "share", "detail"),
        rows,
        title="compile profile",
    )
