#!/usr/bin/env python3
"""``python tools/assign_corpus.py OUT.json``: the AssignPaths corpus.

Compiles the 32 ``matrix_cold`` instances (DVB(5) on four topologies x
two bandwidths x three loads, DVB(12) at two points, six seeded random
layered TFGs on the 6-cube; ``benchmarks/e2e/inputs.py``'s grid and
compiler settings) and the 48 ``FuzzPoint`` seeds (the fuzzer's compiler
settings), and writes per AssignPaths attempt of each compile what the
heuristic computed:

- the number of ``UtilizationState.evaluate_pool`` calls and a SHA-256 of
  their outputs in call order — per candidate its path, the peak value as
  ``float.hex``, the witness kind, link and interval;
- the final assignment;
- the ``UtilizationReport`` fields, floats as ``float.hex``;
- ``inner_iterations`` and ``restarts``.

``tests/data/assign_corpus.json`` is this script's output at the commit
before candidate evaluation was restricted to the links a reroute
touches; ``tests/integration/test_assign_corpus.py`` replays the same
compiles and asserts every field equal.  Rewriting the fixture therefore
records a *heuristic* change, never a refactoring.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.check.fuzz import _CONFIG as FUZZ_CONFIG  # noqa: E402
from repro.check.fuzz import FuzzPoint  # noqa: E402
from repro.core import pipeline  # noqa: E402
from repro.core.compiler import CompilerConfig, compile_schedule  # noqa: E402
from repro.core.utilization import UtilizationState  # noqa: E402
from repro.errors import SchedulingError  # noqa: E402
from repro.experiments.setup import standard_setup  # noqa: E402
from repro.tfg import TFGTiming, dvb_tfg, random_layered_tfg  # noqa: E402
from repro.topology import make_topology  # noqa: E402

#: The matrix_cold grid and compiler settings (benchmarks/e2e/inputs.py).
MATRIX_CONFIG = {"seed": 0, "max_paths": 48, "max_restarts": 4, "retries": 2}
MATRIX_DVB5 = tuple(
    (name, bandwidth, load)
    for name in ("hypercube6", "ghc444", "torus8x8", "torus4x4x4")
    for bandwidth in (64.0, 128.0)
    for load in (0.3142857143, 0.6571428571, 0.8857142857)
)
MATRIX_DVB12 = (("hypercube6", 0.4666666667), ("ghc444", 0.7333333333))
MATRIX_RANDOM_SEEDS = range(6)
FUZZ_SEEDS = range(48)


def _dvb(models: int, name: str, bandwidth: float, load: float):
    setup = standard_setup(dvb_tfg(models), make_topology(name), bandwidth)
    return (setup.timing, setup.topology, setup.allocation,
            setup.tau_in_for_load(load))


def _random_layered(tfg_seed: int):
    """``inputs.Instances.random_layered``: 3 x 4 layers, 6-cube, load 0.8."""
    topology = make_topology("hypercube6")
    tfg = random_layered_tfg(
        seed=tfg_seed, layers=3, width=4, edge_probability=0.5,
        ops_range=(400.0, 1600.0), size_range=(256.0, 3200.0),
    )
    tau_c = max(task.ops for task in tfg.tasks) / 20.0
    tau_m = max(message.size_bytes for message in tfg.messages) / 128.0
    timing = TFGTiming(tfg, 128.0, speeds=20.0,
                       message_window=max(tau_c, tau_m))
    nodes = random.Random(tfg_seed).sample(
        range(topology.num_nodes), tfg.num_tasks
    )
    allocation = dict(zip(tfg.topological_order(), nodes))
    return timing, topology, allocation, max(timing.tau_c / 0.8,
                                             timing.message_window)


def cases():
    """``(case id, compiler settings, problem thunk)`` per corpus compile."""
    for name, bandwidth, load in MATRIX_DVB5:
        yield (f"matrix/dvb5/{name}/{bandwidth}/{load}", MATRIX_CONFIG,
               lambda a=(5, name, bandwidth, load): _dvb(*a))
    for name, load in MATRIX_DVB12:
        yield (f"matrix/dvb12/{name}/128.0/{load}", MATRIX_CONFIG,
               lambda a=(12, name, 128.0, load): _dvb(*a))
    for seed in MATRIX_RANDOM_SEEDS:
        yield (f"matrix/random/{seed}", MATRIX_CONFIG,
               lambda seed=seed: _random_layered(seed))
    for seed in FUZZ_SEEDS:
        yield (f"fuzz/{seed}", FUZZ_CONFIG,
               lambda seed=seed: FuzzPoint.from_seed(seed).build())


@contextlib.contextmanager
def _recording(attempts: list[dict]):
    """Record every AssignPaths run and its candidate evaluations."""
    real_assign = pipeline.assign_paths
    real_evaluate = UtilizationState.evaluate_pool
    hashers: list = []

    def evaluate_pool(state, name):
        outcomes = real_evaluate(state, name)
        for path, witness in outcomes:
            hashers[-1][0].update(repr((
                list(path), witness.value.hex(), witness.kind,
                list(witness.link), witness.interval,
            )).encode() + b"\n")
        hashers[-1][1] += 1
        return outcomes

    def assign_paths(*args, **kwargs):
        hashers.append([hashlib.sha256(), 0])
        result = real_assign(*args, **kwargs)
        digest, calls = hashers[-1]
        report = result.report
        attempts.append({
            "evaluations": calls,
            "evaluate_pool": digest.hexdigest(),
            "assignment": {name: list(path) for name, path
                           in sorted(result.assignment.as_dict().items())},
            "report": {
                "peak": report.peak.hex(),
                "witness_kind": report.witness_kind,
                "witness_link": list(report.witness_link),
                "witness_interval": report.witness_interval,
                "link_utilizations": [
                    [list(link), value.hex()]
                    for link, value in report.link_utilizations.items()
                ],
                "max_spot": report.max_spot.hex(),
            },
            "inner_iterations": result.inner_iterations,
            "restarts": result.restarts,
        })
        return result

    pipeline.assign_paths = assign_paths
    UtilizationState.evaluate_pool = evaluate_pool
    try:
        yield
    finally:
        pipeline.assign_paths = real_assign
        UtilizationState.evaluate_pool = real_evaluate


def record(settings: dict, problem) -> dict:
    """Every AssignPaths attempt of one compile, and its verdict."""
    attempts: list[dict] = []
    with _recording(attempts):
        try:
            compile_schedule(*problem(), CompilerConfig(**settings))
            verdict = "feasible"
        except SchedulingError as error:
            verdict = type(error).__name__
    return {"verdict": verdict, "attempts": attempts}


def corpus() -> dict:
    return {case: record(settings, problem)
            for case, settings, problem in cases()}


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tools/assign_corpus.py OUT.json")
    Path(sys.argv[1]).write_text(json.dumps(corpus(), indent=1) + "\n")
