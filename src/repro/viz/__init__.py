"""Plain-text visualization of schedules and measurements.

Terminal-friendly renderings used by the examples and handy in a REPL:

- :func:`~repro.viz.gantt.node_gantt` — a Gantt chart of one node's
  switching schedule over the frame,
- :func:`~repro.viz.gantt.link_occupancy_chart` — per-link busy bars for
  a communication schedule,
- :func:`~repro.viz.gantt.trace_occupancy_chart` — per-link busy bars
  measured from a recorded run trace (:mod:`repro.trace`).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "link_occupancy_chart": "gantt",
    "node_gantt": "gantt",
    "trace_occupancy_chart": "gantt",
})
