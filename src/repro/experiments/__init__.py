"""Experiment drivers regenerating the paper's figures.

Each figure is a function returning structured rows; the benchmark
harness calls these and prints them (see ``benchmarks/``), and the
examples reuse them for smaller demonstrations.  The experiment index
lives in DESIGN.md; paper-vs-measured outcomes are recorded in
EXPERIMENTS.md.
"""

from repro.experiments.setup import (
    ExperimentSetup,
    InstanceSpec,
    standard_setup,
)
from repro.experiments.figures import (
    PipelinePoint,
    UtilizationPoint,
    pipeline_comparison,
    utilization_comparison,
)
from repro.experiments.matrix import (
    MatrixResult,
    MatrixRow,
    feasibility_matrix,
    format_matrix,
    format_matrix_result,
    run_feasibility_matrix,
)

__all__ = [
    "ExperimentSetup",
    "InstanceSpec",
    "MatrixResult",
    "MatrixRow",
    "PipelinePoint",
    "UtilizationPoint",
    "feasibility_matrix",
    "format_matrix",
    "format_matrix_result",
    "pipeline_comparison",
    "run_feasibility_matrix",
    "standard_setup",
    "utilization_comparison",
]
