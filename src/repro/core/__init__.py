"""Scheduled routing (SR) — the paper's primary contribution.

SR integrates the task specification with flow control: from the TFG, the
allocation, and the input period it computes, at compile time, a
communication schedule Omega — one switching schedule per node — whose
independent execution gives every message a clear source-to-destination
path inside its timing window.  The result is contention-free,
deadlock-free routing with guaranteed constant throughput.

The compile pipeline (paper Fig. 3):

1. :mod:`~repro.core.timebounds` — release times and deadlines per message
   on the canonical frame ``[0, tau_in)``; interval decomposition and the
   message activity matrix ``A`` (Section 4 / 5.1),
2. :mod:`~repro.core.assignment` + :mod:`~repro.core.utilization` — path
   assignment matrix ``B``, link/spot/peak utilisation (Defs. 5.1-5.2),
3. :mod:`~repro.core.assign_paths` — the AssignPaths iterative-improvement
   heuristic minimising peak utilisation ``U`` (Fig. 4),
4. :mod:`~repro.core.subsets` — maximal related subsets (Defs. 5.3-5.4),
5. :mod:`~repro.core.interval_allocation` — the message-interval
   allocation LP (constraints (3)-(4), Section 5.2),
6. :mod:`~repro.core.interval_scheduling` — preemptive packing of each
   interval into link-feasible sets (Def. 5.5, Section 5.3),
7. :mod:`~repro.core.switching` — node switching schedules omega_i and the
   communication schedule Omega (Section 5.4),
8. :mod:`~repro.core.executor` — replay of Omega on the DES kernel,
   machine-checking contention-freedom and constant throughput.

:func:`~repro.core.compiler.compile_schedule` runs the whole pipeline.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "AssignPathsResult": "assign_paths",
    "CommunicationSchedule": "switching",
    "CompilationContext": "pipeline",
    "CompilerConfig": "compiler",
    "CompilerStage": "pipeline",
    "IntervalAllocation": "interval_allocation",
    "IntervalSchedule": "interval_scheduling",
    "IntervalSet": "timebounds",
    "MessageTimeBounds": "timebounds",
    "NodeSchedule": "switching",
    "PathAssignment": "assignment",
    "ScheduledRouting": "compiler",
    "ScheduledRoutingExecutor": "executor",
    "SwitchCommand": "switching",
    "TimeBoundSet": "timebounds",
    "TransmissionSlot": "switching",
    "UtilizationReport": "utilization",
    "allocate_intervals": "interval_allocation",
    "assign_paths": "assign_paths",
    "compile_schedule": "compiler",
    "compile_stages": "pipeline",
    "lsd_assignment": "assign_paths",
    "maximal_subsets": "subsets",
    "run_stages": "pipeline",
    "schedule_intervals": "interval_scheduling",
    "utilization_report": "utilization",
})
