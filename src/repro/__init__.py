"""repro — scheduled routing for task-level pipelining.

A from-scratch reproduction of Shukla & Agrawal, *Scheduling Pipelined
Communication in Distributed Memory Multiprocessors for Real-time
Applications* (ISCA 1991): wormhole routing's output inconsistency under
task-level pipelining, and the scheduled-routing compiler that eliminates
it with compile-time node switching schedules.

Quickstart
----------
>>> from repro import (
...     binary_hypercube, dvb_tfg, standard_setup, compile_schedule,
... )
>>> setup = standard_setup(dvb_tfg(8), binary_hypercube(6), bandwidth=128.0)
>>> routing = compile_schedule(
...     setup.timing, setup.topology, setup.allocation,
...     tau_in=setup.tau_in_for_load(0.5),
... )
>>> routing.utilization.feasible
True

See ``examples/`` for runnable scenarios and ``benchmarks/`` for the
figure-by-figure reproduction harness.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

_exported, __getattr__, __dir__ = lazy_exports(__name__, {
    "AdaptiveWormholeSimulator": "wormhole.adaptive",
    "CacheStats": "cache.store",
    "CommunicationSchedule": "core.switching",
    "CompilerConfig": "core.compiler",
    "ConformanceReport": "check.analyzer",
    "Diagnosis": "diagnose.certificates",
    "ExperimentSetup": "experiments.setup",
    "Finding": "check.analyzer",
    "FuzzReport": "check.fuzz",
    "GeneralizedHypercube": "topology.ghc",
    "IntervalAllocationError": "errors",
    "IntervalSchedulingError": "errors",
    "JitterReport": "metrics.jitter",
    "Mesh": "topology.mesh",
    "OiRisk": "wormhole.analysis",
    "Message": "tfg.graph",
    "Refutation": "diagnose.certificates",
    "ReproError": "errors",
    "RunConfig": "results",
    "RunResult": "results",
    "ScheduleCache": "cache.store",
    "ScheduleValidationError": "errors",
    "ScheduledRouting": "core.compiler",
    "ScheduledRoutingExecutor": "core.executor",
    "SchedulingError": "errors",
    "SimulationError": "errors",
    "SpikeStats": "metrics.series",
    "TFGTiming": "tfg.analysis",
    "Task": "tfg.graph",
    "TaskFlowGraph": "tfg.graph",
    "Torus": "topology.torus",
    "TraceRecorder": "trace.tracer",
    "VerificationReport": "core.verify",
    "UtilizationExceededError": "errors",
    "WormholeSimulator": "wormhole.simulator",
    "WrReport": "diagnose.wormhole",
    "analyze_schedule": "check.analyzer",
    "analyze_wormhole": "diagnose.wormhole",
    "annealed_allocation": "mapping.annealing",
    "assign_paths": "core.assign_paths",
    "available_backends": "solvers",
    "bfs_allocation": "mapping.allocation",
    "binary_hypercube": "topology.hypercube",
    "compile_schedule": "core.compiler",
    "compute_time_bounds": "core.timebounds",
    "default_backend_name": "solvers",
    "diagnose_instance": "diagnose.instance",
    "dvb_tfg": "tfg.dvb",
    "enumerate_minimal_paths": "topology.paths",
    "explain_assignment": "diagnose.duals",
    "get_backend": "solvers",
    "jitter_report": "metrics.jitter",
    "link_occupancy_chart": "viz.gantt",
    "load_schedule": "core.io",
    "load_sweep": "metrics.series",
    "lsd_assignment": "core.assign_paths",
    "lsd_to_msd_route": "topology.routing",
    "mutate_schedule": "check.mutate",
    "node_gantt": "viz.gantt",
    "pipeline_comparison": "experiments.figures",
    "predict_oi_risks": "wormhole.analysis",
    "random_allocation": "mapping.allocation",
    "random_layered_tfg": "tfg.synth",
    "run_fuzz": "check.fuzz",
    "save_schedule": "core.io",
    "schedule_cache_key": "cache.keys",
    "sequential_allocation": "mapping.allocation",
    "speeds_for_ratio": "tfg.analysis",
    "standard_setup": "experiments.setup",
    "to_chrome_trace": "trace.export",
    "trace_occupancy_chart": "viz.gantt",
    "utilization_comparison": "experiments.figures",
    "verify_refutation": "diagnose.verify",
    "verify_schedule": "core.verify",
    "write_chrome_trace": "trace.export",
})
__all__ = [*_exported, "__version__"]
