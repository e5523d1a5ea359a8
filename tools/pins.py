#!/usr/bin/env python3
"""``python tools/pins.py``: write every bit pin, print the name of each that moved.

A *pin* is a recorded output that a test or the benchmark asserts a run
reproduces bit for bit.  :data:`PINS` is the one table of them: name ->
the file it lives in -> the function that produces it.  A pin whose file
is ``tests/data/pins.json`` is one key of that file; every other file is
one producer's output.  The tests compare :func:`produce` with
:func:`pinned`, so the tool has no check mode and no flags: run it, and
``git diff`` is the whole pin diff.  When a change may move a pin, and
what the change must then show: docs/verification.md "Re-pinning".
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import importlib
import itertools
import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.e2e import inputs  # noqa: E402
from repro.cache import ScheduleCache, diagnosis_cache_key, schedule_cache_key  # noqa: E402
from repro.check.analyzer import analyze_schedule  # noqa: E402
from repro.check.fuzz import _CONFIG as FUZZ_CONFIG, FuzzPoint  # noqa: E402
from repro.check.mutate import (COMMAND_MUTATIONS, MUTATIONS,  # noqa: E402
                                MutationSkipped, mutate_schedule)
from repro.core import pipeline  # noqa: E402
from repro.core.assignment import PathAssignment  # noqa: E402
from repro.core.compiler import CompilerConfig, compile_schedule  # noqa: E402
from repro.core.executor import ScheduledRoutingExecutor  # noqa: E402
from repro.core.interval_allocation import IntervalAllocation  # noqa: E402
from repro.core.interval_scheduling import schedule_intervals  # noqa: E402
from repro.core.io import schedule_to_dict  # noqa: E402
from repro.core.pipeline import OK, STAGE_VERDICT_CODES, verdict_code  # noqa: E402
from repro.core.utilization import UtilizationState  # noqa: E402
from repro.diagnose.instance import diagnose_instance  # noqa: E402
from repro.errors import RepairInfeasibleError, ReproError, SchedulingError  # noqa: E402
from repro.experiments import (pipeline_comparison, run_feasibility_matrix,  # noqa: E402
                               standard_setup, utilization_comparison)
from repro.faults.models import (FaultTrace, LinkFault, NodeFault,  # noqa: E402
                                 generate_fault_trace)
from repro.faults.compare import fault_recovery_experiment  # noqa: E402
from repro.faults.repair import repair_schedule  # noqa: E402
from repro.mapping import (annealed_allocation, bfs_allocation,  # noqa: E402
                           communication_cost, placement_congestion, sequential_allocation)
from repro.metrics import load_sweep  # noqa: E402
from repro.serve.jobs import JobRequest  # noqa: E402
from repro.serve.worker import execute_request  # noqa: E402
from repro.solvers import LP_TOL  # noqa: E402
from repro.solvers.scipy_backend import ScipyLinprogBackend  # noqa: E402
from repro.tfg import TFGTiming, dvb_tfg, random_layered_tfg  # noqa: E402
from repro.tfg.graph import build_tfg  # noqa: E402
from repro.tfg.transforms import merge_linear_chains  # noqa: E402
from repro.topology import binary_hypercube, make_topology  # noqa: E402
from repro.topology.routing import links_on_path, lsd_to_msd_route  # noqa: E402
from repro.trace.tracer import TRACE_CATEGORIES, TraceRecorder  # noqa: E402
from repro.wormhole import (AdaptiveWormholeSimulator,  # noqa: E402
                            StoreAndForwardSimulator, WormholeSimulator)

FUZZ_SEEDS = range(48)

# -- wr_corpus: what every wormhole simulator variant returns -------------------

VARIANTS = {"base": WormholeSimulator,
            "vc2": functools.partial(WormholeSimulator, virtual_channels=2),
            "adaptive": AdaptiveWormholeSimulator, "saf": StoreAndForwardSimulator}


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _trace_lines(tracer: TraceRecorder) -> list[str]:
    return [repr((e.category, e.name, e.time.hex(), e.duration.hex(), e.track,
                  sorted((k, repr(v)) for k, v in e.args.items())))
            for e in tracer.events]


def _fault_events(events) -> list:
    return [[time.hex(), kind, str(link)] for time, (kind, link) in events]


def wr_record(variant: str, problem, run: dict, traced: bool) -> dict:
    """What one simulator run with the keywords ``run`` returned, exactly:
    completion times as ``float.hex``, recoveries, per-link waits in
    insertion order, fault events and aborts, or the error; traced, digests
    of the events of every category but ``sim``, in order and as a
    multiset."""
    timing, topology, allocation, tau_in = problem
    sim, record = VARIANTS[variant](timing, topology, allocation), {}
    if traced:
        tracer = TraceRecorder(set(TRACE_CATEGORIES) - {"sim"})
        with contextlib.suppress(Exception):  # the events up to an error count
            sim.run(tau_in, **run, tracer=tracer)
        lines = _trace_lines(tracer)
        record = {"trace_events": len(lines), "trace_sequence": _digest(lines),
                  "trace_multiset": _digest(sorted(lines))}
    try:
        result = sim.run(tau_in, **run)
    except Exception as error:  # noqa: BLE001 - the error is the record
        return {**record, "error": [type(error).__name__, str(error)]}
    extra = result.extra
    record |= {
        "completion_times": [t.hex() for t in result.completion_times],
        "extra_keys": sorted(extra),
        "recoveries": extra["recoveries"],
        "link_waits": [[str(link), wait.hex()] for link, wait in extra["link_waits"].items()],
    }
    if "fault_events" in extra:
        record["fault_events"] = _fault_events(extra["fault_events"])
        record["fault_aborts"] = extra["fault_aborts"]
    return record


def wr_corpus() -> dict:
    """Per run: the ``pipeline_sim`` points and the fuzz seeds under every
    variant, and a seeded fault-injection leg on two machines."""
    instances, corpus = inputs.Instances(), {}
    run = dict(invocations=inputs.SIM_INVOCATIONS, warmup=inputs.SIM_WARMUP)
    for name, load in inputs.SIM_POINTS:
        problem = instances.dvb(5, name, 128.0, load)
        for variant in VARIANTS:
            corpus[f"pipeline/{name}@{load}/{variant}"] = wr_record(
                variant, problem, run, traced=True)
    for seed in FUZZ_SEEDS:
        problem, run = FuzzPoint.from_seed(seed).build(), dict(invocations=12, warmup=4)
        for variant in VARIANTS:
            corpus[f"fuzz/{seed}/{variant}"] = wr_record(variant, problem, run, traced=False)
    for name, load in (("hypercube6", 0.3), ("torus8x8", 0.2)):
        problem = timing, topology, allocation, tau_in = instances.dvb(5, name, 128.0, load)
        used = tuple(sorted({
            link
            for m in timing.tfg.messages if allocation[m.src] != allocation[m.dst]
            for link in links_on_path(lsd_to_msd_route(
                topology, allocation[m.src], allocation[m.dst]))
        }))
        for seed, count, transient in itertools.product(range(5), (2, 4), (0.0, 1.0)):
            run = dict(invocations=12, warmup=4, fault_trace=generate_fault_trace(
                topology, seed=seed, n_link_faults=count, horizon=6 * tau_in,
                transient_fraction=transient, candidate_links=used))
            for variant in ("base", "adaptive"):
                corpus[f"faults/{name}@{load}/seed{seed}/x{count}/transient{transient}/"
                       f"{variant}"] = wr_record(variant, problem, run, traced=True)
    return corpus


# -- faults.timelines: every runner under injected outages ---------------------

def fault_record(run, fault_trace: FaultTrace) -> dict:
    """One traced fault run of 12 invocations: completion times and fault
    events, or the error's class, message and detection time; and a digest
    of the events of every category but ``sim``, in order."""
    tracer = TraceRecorder(set(TRACE_CATEGORIES) - {"sim"})
    try:
        result = run(invocations=12, warmup=4, fault_trace=fault_trace, tracer=tracer)
        record = {"completion_times": [t.hex() for t in result.completion_times],
                  "fault_events": _fault_events(result.extra["fault_events"])}
    except Exception as error:  # noqa: BLE001 - the error is the record
        detected = getattr(error, "detection_time", None)
        record = {"error": [type(error).__name__, str(error),
                            None if detected is None else detected.hex()]}
    lines = _trace_lines(tracer)
    return record | {"trace_events": len(lines), "trace_sequence": _digest(lines)}


def fault_timelines() -> dict:
    """WR, adaptive WR, store-and-forward and the SR replay of DVB(5) on two
    machines under seven fault traces each: seeded permanent and transient
    outages of scheduled links, a transient and a permanent node fault,
    outages of unscheduled links only, outages that share an instant with
    t = 0, a period instant and each other, and one that starts on a claim
    instant of the replay.  The reference LP backend compiles the
    schedules, so no HiGHS build moves them."""
    instances, runs = inputs.Instances(), {}
    for name, load in (("hypercube6", 0.3), ("ghc444", 0.6)):
        problem = timing, topology, allocation, tau_in = instances.dvb(5, name, 128.0, load)
        routing = compile_schedule(*problem, CompilerConfig(**inputs.COMPILER_FIELDS,
                                                            lp_backend="reference"))
        executor = ScheduledRoutingExecutor(routing, timing, topology, allocation)
        slots = sorted((slot for slots in executor.routing.schedule.slots.values()
                        for slot in slots), key=lambda slot: (slot.start, slot.message))
        used = tuple(sorted({link for slot in slots for link in slot.links}))
        spare = tuple(sorted(set(topology.links) - set(used)))
        claim = executor.absolute_slots(slots[0].message, 2)[0][0]
        source = allocation[timing.tfg.message(slots[-1].message).src]
        traces = {kind: generate_fault_trace(
            topology, seed=seed, n_link_faults=count, horizon=6 * tau_in,
            transient_fraction=transient, candidate_links=used)
            for kind, seed, count, transient in (
                ("permanent", 1, 2, 0.0), ("transient", 2, 3, 1.0))}
        traces |= {
            "node_transient": FaultTrace(node_faults=(
                NodeFault(source, 2.5 * tau_in, tau_in / 3),)),
            "node_permanent": FaultTrace(node_faults=(NodeFault(source, 4 * tau_in),)),
            "spare": FaultTrace(link_faults=(
                LinkFault(spare[0], tau_in, tau_in), LinkFault(spare[1], 2 * tau_in))),
            "same_instant": FaultTrace(link_faults=(
                LinkFault(spare[0], 0.0, tau_in / 2),
                LinkFault(used[1], 3 * tau_in, tau_in / 4),
                LinkFault(used[1], 3 * tau_in, tau_in / 2),
                LinkFault(used[2], 3 * tau_in))),
            "claim_instant": FaultTrace(link_faults=(
                LinkFault(slots[0].links[0], claim, tau_in / 8),
                LinkFault(spare[1], claim))),
        }
        runners = {variant: functools.partial(VARIANTS[variant](timing, topology, allocation).run,
                                              tau_in) for variant in ("base", "adaptive", "saf")}
        runners["sr"] = executor.run
        for (kind, trace), (variant, run) in itertools.product(traces.items(), runners.items()):
            runs[f"{name}@{load}/{kind}/{variant}"] = fault_record(run, trace)
    return runs


# -- check.kill_matrix: which checker kills which mutant --------------------------

#: The ``pipeline_sim`` points but torus8x8 @ 0.77: the reference backend
#: finds no schedule there, and its failed compile alone takes 12 s.
KILL_POINTS = tuple(point for point in inputs.SIM_POINTS
                    if point != ("torus8x8", inputs.SWEEP8[5]))


def _rejects(check) -> bool:
    """Whether ``check`` raises one of the library's typed errors; any
    other exception is a crash, not a kill, and propagates."""
    try:
        check()
    except ReproError:
        return True
    return False


def kill_corpus():
    """Every mutant of the kill matrix, in order: per point of
    :data:`KILL_POINTS`, operator and seed 0-3, ``(operator, mutated,
    routing, (timing, topology, allocation))`` with ``mutated`` a
    :class:`~repro.check.mutate.MutatedSchedule`.  The reference LP
    backend compiles the schedules, so no HiGHS build moves them."""
    instances = inputs.Instances()
    for name, load in KILL_POINTS:
        problem = timing, topology, allocation, _ = instances.dvb(5, name, 128.0, load)
        routing = compile_schedule(*problem, CompilerConfig(**inputs.COMPILER_FIELDS,
                                                            lp_backend="reference"))
        for operator, seed in itertools.product(MUTATIONS, range(4)):
            try:
                mutated = mutate_schedule(routing.schedule, seed, operator)
            except MutationSkipped:
                continue
            yield operator, mutated, routing, (timing, topology, allocation)


def replay_omega(routing, node_schedules, timing, topology, allocation, invocations=12):
    """The executor's replay of ``routing`` with its CPs running the
    command memory ``node_schedules``: the executor reads nothing else of
    the schedule."""
    stand_in = SimpleNamespace(node_schedules=node_schedules)
    return ScheduledRoutingExecutor(
        dataclasses.replace(routing, schedule=stand_in), timing, topology,
        allocation).run(invocations=invocations, warmup=2)


def kill_matrix() -> dict:
    """Per mutation operator of :func:`kill_corpus`: how many mutants it
    made and how many each checker that owns the mutated input killed on
    its own -- on a slot mutant the analyzer by an error finding and
    ``validate()`` by raising a :class:`ReproError`, on every mutant the
    executor's replay of Ω by raising one."""
    matrix = {operator: dict.fromkeys(("applied", "executor") if operator in COMMAND_MUTATIONS
                                      else ("applied", "analyzer", "validate", "executor"), 0)
              for operator in MUTATIONS}
    for operator, mutated, routing, (timing, topology, allocation) in kill_corpus():
        row = matrix[operator]
        row["applied"] += 1
        if operator not in COMMAND_MUTATIONS:
            row["analyzer"] += not analyze_schedule(
                mutated.schedule, topology, timing=timing, allocation=allocation).ok
            row["validate"] += _rejects(mutated.schedule.validate)
        row["executor"] += _rejects(lambda: replay_omega(
            routing, mutated.node_schedules, timing, topology, allocation))
    return matrix


# -- assign_corpus: what AssignPaths computes on every attempt ------------------

def _grid_order(op: dict) -> tuple:
    """``matrix_cold``'s ops in grid order (``op_list`` shuffles them)."""
    return ((1, op["tfg_seed"]) if op["kind"] == "random" else
            (0, op["models"], inputs.ALL_TOPOLOGIES.index(op["topology"]),
             op["bandwidth"], op["load"]))


def assign_corpus() -> dict:
    """Per compile: the seed-0 ``matrix_cold`` ops and the fuzz seeds, each
    under its own compiler settings."""
    instances, corpus = inputs.Instances(), {}
    for op in sorted(inputs.op_list("matrix_cold", 0), key=_grid_order):
        case = (f"random/{op['tfg_seed']}" if op["kind"] == "random" else
                f"dvb{op['models']}/{op['topology']}/{op['bandwidth']}/{op['load']}")
        corpus[f"matrix/{case}"] = assign_record(inputs.COMPILER_FIELDS,
                                                 instances.compile_op(op))
    for seed in FUZZ_SEEDS:
        corpus[f"fuzz/{seed}"] = assign_record(FUZZ_CONFIG, FuzzPoint.from_seed(seed).build())
    return corpus


def assign_record(settings: dict, problem) -> dict:
    """Every AssignPaths attempt of one compile, and its verdict: per attempt
    the number of ``evaluate_pool`` calls and a digest of their outputs in
    call order, the assignment, the report (floats as ``float.hex``) and the
    iteration counts."""
    attempts: list[dict] = []
    real_assign, real_evaluate = pipeline.assign_paths, UtilizationState.evaluate_pool

    def evaluate_pool(state, name):
        outcomes = real_evaluate(state, name)
        for path, witness in outcomes:
            attempts[-1]["sha"].update(repr((
                list(path), witness.value.hex(), witness.kind,
                list(witness.link), witness.interval,
            )).encode() + b"\n")
        attempts[-1]["evaluations"] += 1
        return outcomes

    def assign_paths(*args, **kwargs):
        attempts.append({"evaluations": 0, "sha": hashlib.sha256()})
        result = real_assign(*args, **kwargs)
        report = result.report
        attempts[-1] |= {
            "evaluate_pool": attempts[-1].pop("sha").hexdigest(),
            "assignment": {name: list(path) for name, path
                           in sorted(result.assignment.as_dict().items())},
            "report": {
                "peak": report.peak.hex(),
                "witness_kind": report.witness_kind,
                "witness_link": list(report.witness_link),
                "witness_interval": report.witness_interval,
                "link_utilizations": [[list(link), value.hex()]
                                      for link, value in report.link_utilizations.items()],
                "max_spot": report.max_spot.hex(),
            },
            "inner_iterations": result.inner_iterations,
            "restarts": result.restarts,
        }
        return result

    with mock.patch.object(pipeline, "assign_paths", assign_paths), \
            mock.patch.object(UtilizationState, "evaluate_pool", evaluate_pool):
        try:
            compile_schedule(*problem, CompilerConfig(**settings))
            verdict = "feasible"
        except SchedulingError as error:
            verdict = type(error).__name__
    return {"verdict": verdict, "attempts": attempts}


# -- seed0: the benchmark's outcomes ----------------------------------------------

def benchmark_outcomes() -> dict:
    """Verdicts and digests of an untraced seed-0 run of every workload, as
    ``run.py --write-expected`` writes them (it exits 1 on a moved outcome)."""
    run = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "all", "--seed", "0",
         "--trace", "0", "--write-expected"], cwd=ROOT, capture_output=True, text=True)
    if "expected outcomes written" not in run.stdout:
        sys.exit(f"run.py wrote no outcomes:\n{run.stderr[-4000:]}")
    return json.loads((ROOT / PINS["seed0"][0]).read_text())


# -- pins.json: literals the unit tests compare against -----------------------------

def cache_key_space() -> dict:
    """Schedule and diagnosis keys of DVB(5) on the 6-cube at load 0.5."""
    problem = inputs.Instances().dvb(5, "hypercube6", 128.0, 0.5)
    reference = CompilerConfig(lp_backend="reference")
    return {
        "reference": schedule_cache_key(*problem, reference),
        "seed=1": schedule_cache_key(*problem, dataclasses.replace(reference, seed=1)),
        "diagnosis": diagnosis_cache_key(*problem),
    }


def cache_entry_groups() -> dict:
    """Per kind of entry (per stage, for an artifact) that a compile, a
    refused compile and a diagnosis leave on disk: the count, and a digest
    of keys and bytes (the reference backend, so no HiGHS build moves it)."""
    instances, config = inputs.Instances(), CompilerConfig(lp_backend="reference", retries=0)
    good = instances.dvb(5, "hypercube6", 128.0, 0.5)
    with tempfile.TemporaryDirectory() as tmp:
        cache = ScheduleCache(tmp)
        compile_schedule(*good, config, cache=cache)
        diagnose_instance(*good, cache=cache)
        with contextlib.suppress(SchedulingError):
            compile_schedule(*instances.dvb(3, "torus4x4x4", 64.0, 0.7), config, cache=cache)
        entries = {path.stem: path.read_text() for path in Path(tmp).glob("*/*.json")}
        for line in (Path(tmp) / "artifacts.pack").read_text().splitlines():
            key, _, body = line.partition("\t")
            entries[key] = body  # the key's last record is its entry
    groups: dict[str, list[str]] = {}
    for key, body in sorted(entries.items()):
        entry = json.loads(body)
        group = entry["stage"] if entry["kind"] == "artifact" else entry["kind"]
        groups.setdefault(group, []).append(f"{key}:{json.dumps(entry, sort_keys=True)}")
    return {group: [len(lines), _digest(lines)[:16]] for group, lines in groups.items()}


def served_stages() -> list:
    """The stage rows a served DVB(5)/6-cube compile at load 0.5 ships, in
    order, each with its detail apart from the wall-clock ``lp_wall_ms``."""
    request = JobRequest.from_payload({"kind": "compile", "topology": "hypercube6",
                                       "bandwidth": 128, "models": 5, "load": 0.5})
    result = execute_request({"request": request.canonical(), "cache_dir": None})
    return [[row["stage"], [[k, v] for k, v in row["detail"].items() if k != "lp_wall_ms"]]
            for row in result["profile"]["stages"]]


def mixed_packings() -> dict:
    """``schedule_intervals`` on the 3-cube (m0 and m1 share link (1, 3)) over
    one- and multi-message intervals and a demand rescaled to its length."""
    paths = {"m0": [0, 1, 3], "m1": [1, 3], "m2": [4, 5]}
    assignment = PathAssignment(binary_hypercube(3),
                                {n: (p[0], p[-1]) for n, p in paths.items()}, paths)
    allocation = IntervalAllocation(("m0", "m1", "m2"), {
        ("m0", 0): 2.5, ("m2", 0): 3.0, ("m1", 1): 4.0,
        ("m0", 2): 1.25, ("m1", 2): 2.0, ("m2", 2): 1.5,
        ("m2", 3): 6.0 * (1 + 0.25 * LP_TOL), ("m1", 3): 1e-9}, 1.0)
    schedules = schedule_intervals(assignment, allocation, [4.0, 5.0, 6.0, 6.0])
    return {str(k): [[sorted(slot.messages), slot.duration] for slot in schedule.slots]
            for k, schedule in schedules.items()}


def lp_counts() -> dict:
    """LP iterations, solves and failures of a HiGHS compile of DVB(5) on the
    6-cube at B=128 and load 0.4."""
    problem = inputs.Instances().dvb(5, "hypercube6", 128.0, 0.4)
    stats = compile_schedule(*problem, CompilerConfig(lp_backend="highs")).extra["solver_stats"]
    return {name: stats[name] for name in ("lp_iterations", "lp_solves", "lp_failures")}


def lp_trace() -> dict:
    """Every ``LPSolution`` the HiGHS backend returns over the seed-0
    ``matrix_cold`` ops, in call order: the count, and a digest of each
    solution's verdict, objective (``float.hex``), iterations, message and
    the bytes of ``x`` and ``dual_eq``."""
    instances = inputs.Instances()
    config = CompilerConfig(**inputs.COMPILER_FIELDS, lp_backend="highs")
    sha, count = hashlib.sha256(), 0

    def record(solution) -> None:
        nonlocal count
        count += 1
        sha.update(repr((solution.success, solution.objective.hex(),
                         solution.iterations, solution.message)).encode())
        sha.update(solution.x.tobytes())
        sha.update(b"-" if solution.dual_eq is None else solution.dual_eq.tobytes())

    def solve(backend, problem, warm_start=None):
        solution = real_solve(backend, problem)
        record(solution)
        return solution

    def solve_batch(backend, problems, warm_starts=None):
        solutions = real_batch(backend, problems)
        for solution in solutions:
            record(solution)
        return solutions

    real_solve, real_batch = ScipyLinprogBackend.solve, ScipyLinprogBackend.solve_batch
    with mock.patch.object(ScipyLinprogBackend, "solve", solve), \
            mock.patch.object(ScipyLinprogBackend, "solve_batch", solve_batch):
        for op in inputs.op_list("matrix_cold", 0):
            with contextlib.suppress(SchedulingError):
                compile_schedule(*instances.compile_op(op), config)
    return {"solutions": count, "sha256": sha.hexdigest()}


def six_cube_repair() -> dict:
    """Repair of a HiGHS compile of DVB(5) on the 6-cube at B=128 and load
    0.5 with links (17, 19), (1, 3) and (1, 5) down: strategy, rerouted
    messages, their repaired paths, peak U and the Omega digest."""
    problem = inputs.Instances().dvb(5, "hypercube6", 128.0, 0.5)
    config = CompilerConfig(lp_backend="highs")
    outcome = repair_schedule(compile_schedule(*problem, config), *problem[:3],
                              [(17, 19), (1, 3), (1, 5)], config)
    schedule = outcome.routing.schedule
    return {
        "strategy": outcome.strategy,
        "rerouted_messages": list(outcome.rerouted_messages),
        "paths": {name: list(schedule.assignment[name]) for name in outcome.affected_messages},
        "peak_utilization": outcome.peak_utilization,
        "omega": hashlib.sha256(json.dumps(schedule_to_dict(schedule), sort_keys=True)
                                .encode()).hexdigest(),
    }


FACADES = ["repro"] + [f"repro.{name}" for name in (
    "cache", "check", "core", "diagnose", "experiments", "faults", "mapping", "metrics",
    "report", "serve", "sim", "solvers", "tfg", "topology", "trace", "viz", "wormhole")]


def facade_exports() -> dict:
    """Per lazy facade, ``len(__all__)`` and a digest of its sorted names."""
    exports = {package: importlib.import_module(package).__all__ for package in FACADES}
    return {package: [len(names), _digest([" ".join(sorted(names))])[:12]]
            for package, names in exports.items()}


# -- paper.*: the paper's evaluation, one row per DESIGN.md section 4 experiment ----
#
# Verdicts are the feasibility matrix's codes (``OK``, or ``U>1``/``ALO``/
# ``SCH`` for the stage that refused).  Floats are rounded to 6 places, and
# none of them comes from an LP solution: U curves, WR runs and SR
# throughput, never SR latency or a wall time.

#: The figure protocol: DVB(5), twelve loads over [0.2, 1.0], WR runs of 48
#: invocations after 12 of warm-up, and the compiler settings of every row.
PAPER_LOADS = load_sweep(12)
PAPER_RUN = dict(invocations=48, warmup=12)
PAPER_CONFIG = CompilerConfig(seed=0, max_paths=48, max_restarts=4, retries=2)


def _r(value: float) -> float:
    return round(value, 6)


def _load(load: float) -> str:
    return f"{load:.4f}"


def _spike(stats) -> list:
    return [_r(stats.minimum), _r(stats.mean), _r(stats.maximum)]


def _wr(result) -> dict:
    """The OI flag, recoveries and normalized spikes of one WR run."""
    return {"oi": result.has_oi(), "recoveries": result.extra["recoveries"],
            "throughput": _spike(result.throughput_stats()),
            "latency": _spike(result.latency_stats())}


def _dvb_setup(machine: str, bandwidth: float, tfg=None):
    return standard_setup(tfg or dvb_tfg(5), make_topology(machine), bandwidth)


@functools.cache
def _pipeline(machine: str, bandwidth: float) -> dict:
    """``pipeline_comparison`` over the sweep: per load the SR verdict, the
    WR summary (``"deadlock"`` when the run could not finish) and the SR
    replay's mean throughput."""
    points = pipeline_comparison(_dvb_setup(machine, bandwidth), PAPER_LOADS,
                                 **PAPER_RUN, compiler_config=PAPER_CONFIG)
    return {_load(p.load): {
        "verdict": OK if p.sr_feasible else STAGE_VERDICT_CODES[p.sr_fail_stage],
        "wr": "deadlock" if p.wr_deadlock else {
            "oi": p.wr_oi, "recoveries": p.wr_recoveries,
            "throughput": _spike(p.wr_throughput), "latency": _spike(p.wr_latency)},
        "sr_throughput": None if p.sr_throughput is None else _r(p.sr_throughput),
    } for p in points}


def _verdicts(machine: str, bandwidth: float, config=PAPER_CONFIG, tfg=None,
              allocation=None) -> dict:
    """``run_feasibility_matrix``'s verdict per load of the sweep."""
    (row,) = run_feasibility_matrix(tfg or dvb_tfg(5), [make_topology(machine)], [bandwidth],
                                    PAPER_LOADS, config, allocation=allocation).rows
    return dict(zip(map(_load, PAPER_LOADS), row.verdicts))


def _sweep_verdicts(machine: str, bandwidth: float) -> dict:
    return {load: point["verdict"] for load, point in _pipeline(machine, bandwidth).items()}


@functools.cache
def _wr_sweep(variant: str) -> dict:
    """A :data:`VARIANTS` simulator over the sweep, DVB(5)/6-cube/B=128."""
    setup = _dvb_setup("hypercube6", 128.0)
    simulator = VARIANTS[variant](setup.timing, setup.topology, setup.allocation)
    return {_load(load): _wr(simulator.run(setup.tau_in_for_load(load), **PAPER_RUN))
            for load in PAPER_LOADS}


def _utilization(machine: str, verdicts: dict) -> dict:
    """Figs. 5/6 at B=64: both U curves, and the compiler's verdict."""
    points = utilization_comparison(_dvb_setup(machine, 64.0), PAPER_LOADS)
    return {_load(p.load): {"u_lsd": _r(p.u_lsd), "u_assign_paths": _r(p.u_heuristic),
                            "verdict": verdicts[_load(p.load)]} for p in points}


def paper_fig5() -> dict:
    """Fig. 5: U on the 6-cube and GHC(4,4,4) (their verdicts are Figs. 7a/8a's)."""
    return {machine: _utilization(machine, _sweep_verdicts(machine, 64.0))
            for machine in ("hypercube6", "ghc444")}


def paper_fig6() -> dict:
    """Fig. 6: U on the 8x8 and 4x4x4 tori."""
    return {machine: _utilization(machine, _verdicts(machine, 64.0))
            for machine in ("torus8x8", "torus4x4x4")}


def _pipeline_figure(machine: str, *bandwidths: float) -> dict:
    return {f"{bandwidth:g}": _pipeline(machine, bandwidth) for bandwidth in bandwidths}


def paper_fig7() -> dict:
    """Fig. 7: WR and SR on the 6-cube at B=64 and B=128."""
    return _pipeline_figure("hypercube6", 64.0, 128.0)


def paper_fig8() -> dict:
    """Fig. 8: WR and SR on GHC(4,4,4) at B=64 and B=128."""
    return _pipeline_figure("ghc444", 64.0, 128.0)


def paper_fig9() -> dict:
    """Fig. 9: WR and SR on the 8x8 torus at B=128."""
    return _pipeline_figure("torus8x8", 128.0)


def paper_fig10() -> dict:
    """Fig. 10: WR and SR on the 4x4x4 torus at B=128."""
    return _pipeline_figure("torus4x4x4", 128.0)


def paper_claim3() -> dict:
    """Section 3's two-message witness (M1, M2 through the critical path of
    a 3-task chain on the 3-cube) per input period: the WR run, and SR's
    verdict and replayed throughput under the default compiler."""
    tfg = build_tfg("claim3", [("t0", 400), ("t1", 400), ("t2", 400)],
                    [("M1", "t0", "t1", 1280), ("M2", "t1", "t2", 1280)])
    timing, topology = TFGTiming(tfg, 128.0, speeds=40.0), binary_hypercube(3)
    allocation, row = {"t0": 0, "t1": 3, "t2": 1}, {}
    for tau_in in (11.0, 12.0, 14.0, 16.0, 20.0, 30.0, 60.0):
        point = {"wr": _wr(WormholeSimulator(timing, topology, allocation)
                           .run(tau_in, **PAPER_RUN))}
        try:
            routing = compile_schedule(timing, topology, allocation, tau_in)
        except SchedulingError as error:
            point |= {"verdict": verdict_code(error), "sr_throughput": None}
        else:
            sr = ScheduledRoutingExecutor(routing, timing, topology, allocation).run(**PAPER_RUN)
            point |= {"verdict": OK, "sr_throughput": _spike(sr.throughput_stats())}
        row[f"{tau_in:g}"] = point
    return row


def _wr_of_fig7b() -> dict:
    return {load: point["wr"] for load, point in _pipeline("hypercube6", 128.0).items()}


def _side_by_side(**series: dict) -> dict:
    return {load: {name: points[load] for name, points in series.items()}
            for load in map(_load, PAPER_LOADS)}


def paper_abl_vc() -> dict:
    """Section 6's stricter WR model: one channel against two virtual
    channels, DVB(5)/6-cube/B=128."""
    return _side_by_side(plain=_wr_of_fig7b(), vc2=_wr_sweep("vc2"))


def paper_abl_ap() -> dict:
    """SR verdicts with every message on its LSD->MSD route (the default
    compiler without AssignPaths) against the figures' AssignPaths ones."""
    lsd = CompilerConfig(use_assign_paths=False)
    return {f"{machine}/{bandwidth:g}": _side_by_side(
        lsd=_verdicts(machine, bandwidth, lsd),
        assign_paths=_sweep_verdicts(machine, bandwidth))
        for machine, bandwidth in (("hypercube6", 128.0), ("ghc444", 64.0),
                                   ("torus4x4x4", 128.0))}


SYNC_MARGINS = (0.0, 1.0, 2.5, 5.0, 10.0, 20.0)


def paper_abl_sync() -> dict:
    """SR verdicts per CP guard margin (µs), DVB(5)/6-cube/B=128."""
    return {f"{margin:g}": _sweep_verdicts("hypercube6", 128.0) if margin == 0 else
            _verdicts("hypercube6", 128.0, dataclasses.replace(PAPER_CONFIG, sync_margin=margin))
            for margin in SYNC_MARGINS}


def paper_abl_alloc() -> dict:
    """Per placement of DVB(5) on the 6-cube at B=64: its byte-hops, its
    peak link bytes, and SR's verdicts (sequential is Fig. 7a's).  Each
    placement is computed once: the annealer alone takes about a second."""
    topology, dvb, row = make_topology("hypercube6"), dvb_tfg(5), {}
    annealed = functools.partial(annealed_allocation, seed=0, iterations=3000)
    for name, allocator in (("sequential", sequential_allocation),
                            ("bfs-locality", bfs_allocation), ("annealed", annealed)):
        placed = allocator(dvb, topology)
        row[name] = {
            "byte_hops": _r(communication_cost(dvb, topology, placed)),
            "peak_link_bytes": _r(placement_congestion(dvb, topology, placed)),
            "verdicts": _sweep_verdicts("hypercube6", 64.0) if name == "sequential"
            else _verdicts("hypercube6", 64.0, allocation=lambda tfg, topology: placed),
        }
    return row


def paper_abl_adapt() -> dict:
    """Section 3's second claim: deterministic against per-hop adaptive
    minimal WR, DVB(5)/6-cube/B=128."""
    return _side_by_side(deterministic=_wr_of_fig7b(), adaptive=_wr_sweep("adaptive"))


def paper_abl_saf() -> dict:
    """Three routing generations, DVB(5)/6-cube/B=128: store-and-forward,
    wormhole, and SR's verdict."""
    return _side_by_side(store_forward=_wr_sweep("saf"), wormhole=_wr_of_fig7b(),
                         sr=_sweep_verdicts("hypercube6", 128.0))


def paper_abl_grain() -> dict:
    """DVB(5) and its chain-coarsened form on the 6-cube: size, ASAP
    latency (µs, no LP in it) and SR's verdicts at B=64 and B=128."""
    row = {}
    for name, tfg in (("original", dvb_tfg(5)), ("coarsened", merge_linear_chains(dvb_tfg(5)))):
        row[name] = {"tasks": tfg.num_tasks, "messages": tfg.num_messages,
                     "asap_latency": _r(_dvb_setup("hypercube6", 128.0, tfg).timing.asap_latency())}
        for bandwidth in (64.0, 128.0):
            row[name][f"{bandwidth:g}"] = (_sweep_verdicts("hypercube6", bandwidth)
                                           if name == "original" else
                                           _verdicts("hypercube6", bandwidth, tfg=tfg))
    return row


def paper_gen() -> dict:
    """Eight seeded random layered TFGs on the 6-cube at B=128 and load 0.8,
    placed at random: the WR run's OI and peak-to-peak output jitter, SR's
    verdict and whether its replay shows OI."""
    topology, row = make_topology("hypercube6"), {}
    for seed in range(8):
        tfg = random_layered_tfg(seed=seed, layers=4, width=4, edge_probability=0.5,
                                 ops_range=(400.0, 1600.0), size_range=(256.0, 3200.0))
        tau_c = max(t.ops for t in tfg.tasks) / 20.0
        tau_m = max(m.size_bytes for m in tfg.messages) / 128.0
        timing = TFGTiming(tfg, 128.0, speeds=20.0, message_window=max(tau_c, tau_m))
        nodes = random.Random(seed).sample(range(topology.num_nodes), tfg.num_tasks)
        allocation = dict(zip(tfg.topological_order(), nodes))
        tau_in = max(timing.tau_c / 0.8, timing.message_window)
        wr = WormholeSimulator(timing, topology, allocation).run(tau_in, invocations=32, warmup=8)
        point = {"tasks": tfg.num_tasks, "messages": tfg.num_messages, "wr_oi": wr.has_oi(),
                 "wr_jitter_p2p": _r(wr.jitter().peak_to_peak)}
        try:
            routing = compile_schedule(timing, topology, allocation, tau_in, PAPER_CONFIG)
        except SchedulingError as error:
            point |= {"verdict": verdict_code(error), "sr_oi": None}
        else:
            sr = ScheduledRoutingExecutor(routing, timing, topology, allocation).run(
                invocations=32, warmup=8)
            point |= {"verdict": OK, "sr_oi": sr.has_oi()}
        row[str(seed)] = point
    return row


def paper_fault_recovery() -> dict:
    """``fault_recovery_experiment`` with one permanent link fault, seeds
    0-2, on the 6-cube at load 0.5 and the 8x8 torus at load 0.2 (B=128,
    32 invocations): what failed, how it was repaired, the deliveries the
    outage lost, and both sides' OI and jitter afterwards."""
    row = {}
    for machine, load in (("hypercube6", 0.5), ("torus8x8", 0.2)):
        setup, row[machine] = _dvb_setup(machine, 128.0), {}
        for seed in range(3):
            try:
                r = fault_recovery_experiment(setup, load, seed=seed, invocations=32,
                                              warmup=12, config=PAPER_CONFIG)
            except RepairInfeasibleError as error:
                row[machine][str(seed)] = {"error": [type(error).__name__, str(error)]}
                continue
            row[machine][str(seed)] = {
                "failed_links": sorted(map(list, r.failed_links)),
                "strategy": r.repair.strategy,
                "affected": list(r.repair.affected_messages),
                "rerouted": list(r.repair.rerouted_messages),
                "missed_deliveries": r.outage.num_missed_deliveries,
                "missed_invocations": r.outage.num_missed_invocations,
                "sr_oi": r.sr_result.has_oi(),
                "sr_jitter_p2p": _r(r.sr_result.jitter().peak_to_peak),
                "wr": None if r.wr_result is None else {
                    "oi": r.wr_result.has_oi(),
                    "jitter_p2p": _r(r.wr_result.jitter().peak_to_peak)},
            }
    return row


# -- the table ------------------------------------------------------------------

PINS_FILE = "tests/data/pins.json"
PINS = {
    "wr_corpus": ("tests/data/wr_corpus.json", wr_corpus),
    "assign_corpus": ("tests/data/assign_corpus.json", assign_corpus),
    "seed0": ("benchmarks/e2e/expected/seed0.json", benchmark_outcomes),
    "cache.key_space": (PINS_FILE, cache_key_space),
    "cache.entry_groups": (PINS_FILE, cache_entry_groups),
    "serve.dvb5_stages": (PINS_FILE, served_stages),
    "intervals.mixed_packings": (PINS_FILE, mixed_packings),
    "solvers.lp_counts": (PINS_FILE, lp_counts),
    "solvers.lp_trace": (PINS_FILE, lp_trace),
    "import.facades": (PINS_FILE, facade_exports),
    "faults.timelines": (PINS_FILE, fault_timelines),
    "faults.six_cube_repair": (PINS_FILE, six_cube_repair),
    "check.kill_matrix": (PINS_FILE, kill_matrix),
    "paper.fig5": (PINS_FILE, paper_fig5),
    "paper.fig6": (PINS_FILE, paper_fig6),
    "paper.fig7": (PINS_FILE, paper_fig7),
    "paper.fig8": (PINS_FILE, paper_fig8),
    "paper.fig9": (PINS_FILE, paper_fig9),
    "paper.fig10": (PINS_FILE, paper_fig10),
    "paper.claim3": (PINS_FILE, paper_claim3),
    "paper.abl_vc": (PINS_FILE, paper_abl_vc),
    "paper.abl_ap": (PINS_FILE, paper_abl_ap),
    "paper.abl_sync": (PINS_FILE, paper_abl_sync),
    "paper.abl_alloc": (PINS_FILE, paper_abl_alloc),
    "paper.abl_adapt": (PINS_FILE, paper_abl_adapt),
    "paper.abl_saf": (PINS_FILE, paper_abl_saf),
    "paper.abl_grain": (PINS_FILE, paper_abl_grain),
    "paper.gen": (PINS_FILE, paper_gen),
    "paper.fault_recovery": (PINS_FILE, paper_fault_recovery),
}


def produce(name: str):
    """What ``name``'s producer returns now, as JSON reads it back."""
    return json.loads(json.dumps(PINS[name][1]()))


def pinned(name: str):
    """What ``name``'s file holds for it."""
    path = PINS[name][0]
    document = json.loads((ROOT / path).read_text())
    return document[name] if path == PINS_FILE else document


def _dump(value) -> str:
    return json.dumps(value, indent=1) + "\n"


def _stored(name: str) -> str | None:
    with contextlib.suppress(FileNotFoundError, KeyError):
        return _dump(pinned(name))
    return None


def main() -> None:
    before, files = {name: _stored(name) for name in PINS}, {}
    for name, (path, _) in PINS.items():
        files.setdefault(path, {})[name] = produce(name)
    for path, values in files.items():
        (ROOT / path).write_text(_dump(values if path == PINS_FILE else values.popitem()[1]))
    for name in PINS:
        if _stored(name) != before[name]:
            print(name)


if __name__ == "__main__":
    main()
