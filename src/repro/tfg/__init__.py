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

from repro.tfg.analysis import CriticalPath, TFGTiming, speeds_for_ratio
from repro.tfg.dvb import dvb_tfg
from repro.tfg.graph import Message, Task, TaskFlowGraph
from repro.tfg.synth import random_layered_tfg

__all__ = [
    "CriticalPath",
    "Message",
    "TFGTiming",
    "Task",
    "TaskFlowGraph",
    "dvb_tfg",
    "random_layered_tfg",
    "speeds_for_ratio",
]
