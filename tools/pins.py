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
from repro.core.utilization import UtilizationState  # noqa: E402
from repro.diagnose.instance import diagnose_instance  # noqa: E402
from repro.errors import ReproError, SchedulingError  # noqa: E402
from repro.faults.models import (FaultTrace, LinkFault, NodeFault,  # noqa: E402
                                 generate_fault_trace)
from repro.faults.repair import repair_schedule  # noqa: E402
from repro.serve.jobs import JobRequest  # noqa: E402
from repro.serve.worker import execute_request  # noqa: E402
from repro.solvers import LP_TOL  # noqa: E402
from repro.solvers.scipy_backend import ScipyLinprogBackend  # noqa: E402
from repro.topology import binary_hypercube  # noqa: E402
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
