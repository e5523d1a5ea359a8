"""Structured event tracing for simulations and the compiler.

The tracing layer answers the question the paper's whole argument hangs
on: *when* does each link carry each flit, and *when* does each output
appear?  Aggregates (mean throughput, peak-to-peak jitter) summarise a
run; a trace lets you replay it — see output inconsistency as the
alternating link grants of Section 3, or check that a scheduled replay's
link occupancy is exactly the compiled ``absolute_slots`` windows.

Design constraints:

- **Zero cost when disabled.**  Every producer holds a
  :class:`Tracer`; the default is the module-level :data:`NULL_TRACER`,
  whose methods are no-ops and whose :attr:`Tracer.enabled` flag is
  ``False`` so hot paths can skip even argument construction with a
  single attribute test (``if tracer.enabled: ...``).
- **Typed, flat events.**  A :class:`TraceEvent` is a span (has a
  duration) or an instant, carries a *category* from the taxonomy below,
  a *track* (the timeline it belongs to — a link, a node's CP, a
  message), and free-form ``args``.

Event taxonomy (``category`` values)
------------------------------------
``sim``
    Kernel bookkeeping: event scheduling and agenda steps
    (:class:`~repro.sim.environment.Environment`).  High volume; filter
    them out with ``TraceRecorder(categories=...)`` unless debugging the
    kernel itself.
``link``
    Link-resource activity (:class:`~repro.sim.resources.Resource`):
    ``occupy`` spans (grant -> release) and ``blocked`` spans (request ->
    grant when the grant was not immediate).  One track per link.
``crossbar``
    One frame of Ω as ``repro-sr trace --mode sr`` draws it: one
    ``switch`` span per switching command, one track per node's CP.
``slot``
    The circuits' transmission windows the SR executor replays: one span
    per message occurrence, tracked per message.
``flight``
    Wormhole path setup + transmission: one span per message instance
    from first link request to delivery; ``abort`` instants mark
    deadlock/fault recoveries.
``task``
    Task executions (one track per node's AP or task owner).
``run``
    Run-level milestones: invocation ``completion`` instants.
``fault``
    Injected machine degradation: ``down`` / ``up`` instants per link,
    ``detection`` and ``repair`` milestones from the survivability
    experiment.
``compile``
    Compiler stage spans (:meth:`Tracer.stage`, one per stage run, on
    the ``compiler`` track): wall-clock microseconds since the
    recorder was created, with the stage's detail (message counts, LP
    sizes and solver tally) in ``args``.
``check``
    Conformance-analyzer findings
    (:meth:`repro.check.analyzer.ConformanceReport.emit`): one instant
    per finding at the start of its offending time range, on a
    ``check:<code>`` track, with severity / message / link in ``args``.
``diagnose``
    Static instance-diagnosis refutations
    (:meth:`repro.diagnose.Diagnosis.emit`): one instant per
    certificate at the start of its witness window, on a
    ``diagnose:<kind>`` track, with demand / capacity / links /
    messages in ``args``.
``serve``
    Compile-farm request lifecycle
    (:class:`repro.serve.CompileService`): ``enqueue`` / ``admit`` /
    ``reject`` / ``dispatch`` / ``complete`` / ``coalesce`` / ``fail``
    instants on a ``serve:<kind>`` track, timed in wall-clock seconds
    since service start, each carrying the job id, cache-key prefix and
    the in-flight queue depth in ``args``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping

#: The complete event taxonomy (one entry per section of the module
#: docstring above).  :class:`TraceEvent` and the
#: :class:`TraceRecorder` filter reject anything else, so a typo'd
#: category cannot silently vanish from filtered recordings.
TRACE_CATEGORIES = (
    "sim",
    "link",
    "crossbar",
    "slot",
    "flight",
    "task",
    "run",
    "fault",
    "compile",
    "check",
    "diagnose",
    "serve",
)


@dataclass(frozen=True)
class TraceEvent:
    """One traced occurrence.

    Attributes
    ----------
    category:
        Taxonomy bucket (see module docstring).
    name:
        Event name within the category (``"occupy"``, ``"blocked"``...).
    time:
        Start instant.  Simulation events use model microseconds;
        compiler events use wall-clock microseconds since the recorder
        was created.
    duration:
        Span length; ``0.0`` marks an instant event.
    track:
        The timeline this event belongs to (a link name, ``"CP5"``,
        ``"msg M3"``...).  Exporters render one row/thread per track.
    args:
        Free-form structured payload (owner, invocation, cause...).
    """

    category: str
    name: str
    time: float
    duration: float = 0.0
    track: str = ""
    args: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.category not in TRACE_CATEGORIES:
            raise ValueError(
                f"unknown trace category {self.category!r} "
                f"(expected one of {TRACE_CATEGORIES})"
            )

    @property
    def end(self) -> float:
        """Span end (equals :attr:`time` for instants)."""
        return self.time + self.duration

    @property
    def is_span(self) -> bool:
        return self.duration > 0.0


class Tracer:
    """No-op tracer: the null object every producer defaults to.

    Subclasses that record must set :attr:`enabled` truthy; producers
    guard hot paths with it so a disabled tracer costs one attribute
    check per potential event.
    """

    #: Hot-path guard: producers skip event construction when False.
    enabled: bool = False

    def instant(
        self, category: str, name: str, time: float, track: str = "", **args: Any
    ) -> None:
        """Record a point event."""

    def span(
        self,
        category: str,
        name: str,
        start: float,
        end: float,
        track: str = "",
        **args: Any,
    ) -> None:
        """Record an interval event ``[start, end]``."""

    @contextmanager
    def stage(self, name: str, **detail: Any) -> Iterator[dict[str, Any]]:
        """Time one compiler stage; mutate the yielded dict to add late
        detail (sizes known only after the stage body ran).  Here the
        detail goes nowhere."""
        yield detail

    @property
    def events(self) -> tuple[TraceEvent, ...]:
        """Recorded events (empty for non-recording tracers)."""
        return ()


#: Shared null tracer; safe to use as a default everywhere (stateless).
NULL_TRACER = Tracer()


class TraceRecorder(Tracer):
    """In-memory tracer collecting :class:`TraceEvent` objects.

    Parameters
    ----------
    categories:
        When given, only events whose category is in this set are kept
        (cheap pre-filter — high-volume ``sim`` events never allocate).
    """

    enabled = True

    def __init__(self, categories: Iterable[str] | None = None) -> None:
        self._events: list[TraceEvent] = []
        self._origin = time.perf_counter()
        self.categories = frozenset(categories) if categories is not None else None
        if self.categories is not None:
            unknown = sorted(self.categories.difference(TRACE_CATEGORIES))
            if unknown:
                raise ValueError(
                    f"unknown trace categories {unknown} in recorder filter "
                    f"(expected a subset of {TRACE_CATEGORIES})"
                )

    def wants(self, category: str) -> bool:
        """True when events of ``category`` are being kept."""
        return self.categories is None or category in self.categories

    def instant(
        self, category: str, name: str, time: float, track: str = "", **args: Any
    ) -> None:
        if self.wants(category):
            self._events.append(
                TraceEvent(category, name, time, 0.0, track, args)
            )

    def span(
        self,
        category: str,
        name: str,
        start: float,
        end: float,
        track: str = "",
        **args: Any,
    ) -> None:
        if self.wants(category):
            self._events.append(
                TraceEvent(category, name, start, end - start, track, args)
            )

    @contextmanager
    def stage(self, name: str, **detail: Any) -> Iterator[dict[str, Any]]:
        """Time one compiler stage as a ``compile`` span on track
        ``compiler``, recorded on exit (errors included) with the final
        detail as its ``args``."""
        start = time.perf_counter()
        try:
            yield detail
        finally:
            end = time.perf_counter()
            if self.wants("compile"):
                self._events.append(TraceEvent(
                    "compile",
                    name,
                    (start - self._origin) * 1e6,
                    max(end - start, 1e-6) * 1e6,
                    "compiler",
                    detail,
                ))

    # -- queries ---------------------------------------------------------

    @property
    def events(self) -> tuple[TraceEvent, ...]:
        return tuple(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def select(
        self,
        category: str | None = None,
        name: str | None = None,
        track: str | None = None,
    ) -> list[TraceEvent]:
        """Events matching every given filter, in recording order."""
        return [
            e
            for e in self._events
            if (category is None or e.category == category)
            and (name is None or e.name == name)
            and (track is None or e.track == track)
        ]

    def spans(self, category: str | None = None, **filters: Any) -> list[TraceEvent]:
        """Span events matching the filters."""
        return [e for e in self.select(category, **filters) if e.is_span]

    def instants(self, category: str | None = None, **filters: Any) -> list[TraceEvent]:
        """Instant events matching the filters."""
        return [e for e in self.select(category, **filters) if not e.is_span]

    def tracks(self) -> list[str]:
        """Distinct non-empty tracks, in first-seen order."""
        return list(dict.fromkeys(e.track for e in self._events if e.track))

    def occupancy(self) -> dict[str, list[tuple[float, float, Any]]]:
        """Per-link busy windows ``(start, end, owner)``, time-sorted:
        the ``link``/``occupy`` spans, the timeline the Gantt renderers
        and the golden-trace tests consume."""
        timelines: dict[str, list[tuple[float, float, Any]]] = {}
        for event in self._events:
            if event.category != "link" or event.name != "occupy":
                continue
            timelines.setdefault(event.track, []).append(
                (event.time, event.end, event.args.get("owner"))
            )
        for windows in timelines.values():
            windows.sort()
        return timelines

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        categories: dict[str, int] = {}
        for event in self._events:
            categories[event.category] = categories.get(event.category, 0) + 1
        return f"<TraceRecorder {len(self._events)} events {categories}>"
