"""Task-flow graphs (TFGs) — the paper's application model (Section 2).

A TFG is a directed acyclic graph whose vertices are sequential tasks and
whose edges are messages; pipelining executes the whole TFG once per
periodic input arrival.  This package provides:

- :class:`~repro.tfg.graph.TaskFlowGraph` with :class:`~repro.tfg.graph.Task`
  and :class:`~repro.tfg.graph.Message`,
- :class:`~repro.tfg.analysis.TFGTiming` — execution/transmission times,
  the ASAP schedule with per-message windows, and critical paths,
- :func:`~repro.tfg.dvb.dvb_tfg` — the DARPA Vision Benchmark workload of
  the paper's Fig. 1 (reconstructed; see module docstring),
- :func:`~repro.tfg.synth.random_layered_tfg` — seeded random workloads.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "CriticalPath": "analysis",
    "Message": "graph",
    "TFGTiming": "analysis",
    "Task": "graph",
    "TaskFlowGraph": "graph",
    "dvb_tfg": "dvb",
    "random_layered_tfg": "synth",
    "speeds_for_ratio": "analysis",
})
