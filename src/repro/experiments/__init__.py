"""Experiment drivers regenerating the paper's figures.

Each figure is a function returning structured rows; the benchmark
harness calls these and prints them (see ``benchmarks/``), and the
examples reuse them for smaller demonstrations.  The experiment index
lives in DESIGN.md; paper-vs-measured outcomes are recorded in
EXPERIMENTS.md.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "ExperimentSetup": "setup",
    "InstanceSpec": "setup",
    "MatrixResult": "matrix",
    "MatrixRow": "matrix",
    "PipelinePoint": "figures",
    "UtilizationPoint": "figures",
    "format_matrix": "matrix",
    "format_matrix_result": "matrix",
    "pipeline_comparison": "figures",
    "run_feasibility_matrix": "matrix",
    "standard_setup": "setup",
    "utilization_comparison": "figures",
})
