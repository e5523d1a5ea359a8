"""AssignPaths optimality: the ILP reference on the standard matrix.

Every point of the trajectory's standard 20-point grid — the DVB TFG
(5 object models) on ``{6-cube, GHC(4,4,4)}`` at bandwidth 128 across a
10-point load sweep — is compiled (``lp_backend="highs"``) and, where
feasible, the heuristic's path assignment is scored against the exact
ILP optimum over the same candidate pools
(:func:`repro.solvers.ilp_backend.assignment_gap`).

The report lands in ``BENCH_ilp.json`` at the repo root (the artifact
EXPERIMENTS.md quotes; rows pinned before ``ilp`` stopped being a
backend name also carry ``ilp_verdict``/``schedules_match``) and the
run asserts two gates:

- every reported gap is non-negative (the ILP optimum lower-bounds any
  pool assignment) up to numerical tolerance;
- against a pinned report: no verdict drift, and the maximum gap does
  not regress past the pinned value plus a small tolerance.

Run standalone (``python benchmarks/bench_ilp_gap.py``), through
pytest-benchmark (``pytest benchmarks/bench_ilp_gap.py``), or with
``BENCH_ILP_UPDATE=1`` to re-pin.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import time
from pathlib import Path

from benchmarks.conftest import COMPILER
from repro.core.compiler import compile_schedule
from repro.errors import SchedulingError
from repro.experiments.setup import standard_setup
from repro.metrics import load_sweep
from repro.solvers.ilp_backend import assignment_gap
from repro.tfg import dvb_tfg
from repro.topology import GeneralizedHypercube, binary_hypercube

OUT = Path(__file__).resolve().parent.parent / "BENCH_ilp.json"

BANDWIDTH = 128.0
LOADS = tuple(load_sweep(10))

#: Branch-and-bound budget per point, seconds.
TIME_LIMIT = float(os.environ.get("BENCH_ILP_TIME_LIMIT", "30"))

GAP_TOL = 1e-9


def _topologies():
    return [binary_hypercube(6), GeneralizedHypercube((4, 4, 4))]


def _compile(setup, load):
    config = dataclasses.replace(COMPILER, lp_backend="highs")
    try:
        routing = compile_schedule(
            setup.timing,
            setup.topology,
            setup.allocation,
            setup.tau_in_for_load(load),
            config,
        )
        return "OK", routing
    except SchedulingError as error:
        return type(error).__name__, None


def _run() -> dict:
    tfg = dvb_tfg(5)
    rows = []
    began = time.perf_counter()
    for topology in _topologies():
        setup = standard_setup(tfg, topology, BANDWIDTH)
        endpoints = {
            m.name: (setup.allocation[m.src], setup.allocation[m.dst])
            for m in tfg.messages
            if setup.allocation[m.src] != setup.allocation[m.dst]
        }
        for load in LOADS:
            highs_verdict, highs_routing = _compile(setup, load)
            row = {
                "topology": topology.name,
                "load": round(load, 4),
                "verdict": highs_verdict,
            }
            if highs_routing is not None:
                gap = assignment_gap(
                    highs_routing.bounds,
                    setup.topology,
                    endpoints,
                    highs_routing.schedule.assignment,
                    max_paths=COMPILER.max_paths,
                    time_limit=TIME_LIMIT,
                )
                row.update(
                    gap=round(gap.gap, 6),
                    heuristic_peak=round(gap.heuristic_peak, 6),
                    optimal_peak=round(gap.optimal_peak, 6),
                    status=gap.status,
                    nodes=gap.nodes,
                )
            rows.append(row)
    gaps = [row["gap"] for row in rows if "gap" in row]
    return {
        "workload": {
            "tfg": "dvb(5 models)",
            "topologies": [t.name for t in _topologies()],
            "bandwidth": BANDWIDTH,
            "loads": [round(load, 4) for load in LOADS],
            "max_paths": COMPILER.max_paths,
            "time_limit_s": TIME_LIMIT,
        },
        "points": len(rows),
        "scored": len(gaps),
        "max_gap": round(max(gaps), 6) if gaps else None,
        "mean_gap": round(sum(gaps) / len(gaps), 6) if gaps else None,
        "wall_s": round(time.perf_counter() - began, 3),
        "rows": rows,
    }


def _pinned() -> dict | None:
    if not OUT.exists():
        return None
    return json.loads(OUT.read_text())


def _check(report: dict, pinned: dict | None) -> list[str]:
    violations = []
    for row in report["rows"]:
        if "gap" in row and row["gap"] < -GAP_TOL:
            violations.append(
                f"{row['topology']} load {row['load']}: negative gap "
                f"{row['gap']} — the 'optimum' beat itself"
            )
    if pinned is not None:
        if [r["verdict"] for r in report["rows"]] != [
            r["verdict"] for r in pinned["rows"]
        ]:
            violations.append("verdict drift against the pinned matrix")
        if (
            report["max_gap"] is not None
            and pinned["max_gap"] is not None
            and report["max_gap"] > pinned["max_gap"] + 1e-6
        ):
            violations.append(
                f"max gap {report['max_gap']} regressed past the pinned "
                f"{pinned['max_gap']}"
            )
    return violations


def _summarize(report: dict) -> str:
    return "\n".join([
        f"points          {report['points']} "
        f"({report['scored']} feasible, scored)",
        f"max gap         {report['max_gap']}",
        f"mean gap        {report['mean_gap']}",
        f"wall            {report['wall_s']} s "
        f"(time limit {report['workload']['time_limit_s']}s/point)",
    ])


def _finish(report: dict) -> list[str]:
    if os.environ.get("BENCH_ILP_UPDATE") == "1" or not OUT.exists():
        OUT.write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
        print(f"reference pinned to {OUT}")
        return _check(report, None)
    return _check(report, _pinned())


def test_ilp_gap(benchmark):
    report = benchmark.pedantic(_run, rounds=1)
    print()
    print(_summarize(report))
    violations = _finish(report)
    assert not violations, "; ".join(violations)


def main() -> int:
    report = _run()
    print(_summarize(report))
    violations = _finish(report)
    for violation in violations:
        print(f"GATE VIOLATION: {violation}", file=sys.stderr)
    return 1 if violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
