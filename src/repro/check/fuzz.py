"""Seeded differential fuzzing of the SR compiler pipeline.

Every fuzz point is fully determined by one integer seed: a random
layered TFG, a topology large enough to host it, a seeded random
allocation, a bandwidth derived so every message fits its window, and a
``tau_in`` picked from a small load grid.  Each point is then compiled
and cross-checked along three independent axes:

- **backend differential** — the point is compiled once per available LP
  backend (always the pure-Python reference simplex; HiGHS too when
  scipy is importable).  All backends must agree on feasibility, and
  every feasible schedule must *individually* pass the full
  verification stack (the LP solutions themselves may legitimately
  differ).
- **verifier differential** — for each feasible schedule, the static
  conformance analyzer (:func:`repro.check.analyzer.analyze_schedule`)
  and the discrete-event replay of Ω
  (:class:`~repro.core.executor.ScheduledRoutingExecutor`) must both
  reach the same verdict: pass.
- **cache differential** — the point is compiled cold through a disk
  cache and again warm through a *fresh* cache object over the same
  directory; the served result must be byte-identical to the fresh
  compilation (same canonical entry for schedules, same reconstructed
  error for negative entries).
- **delta differential** — one input element is perturbed (a message
  size, a topology link, or the task speed — the seed picks which) and
  the perturbed instance is compiled over the original's warm artifact
  cache.  The delta recompile must be byte-identical (modulo solver
  wall times and tallies — it legitimately performs fewer LP solves) to
  a cold compile of the perturbed instance, proving stage-level
  artifact reuse never changes results.
- **diagnoser soundness** (serve admission relies on it) — the static
  instance diagnoser (:mod:`repro.diagnose`) runs on every point; a
  statically refuted point must be infeasible on *every* backend, and
  every refutation's witness must survive the independent replay
  verifier (:func:`repro.diagnose.verify_refutation`).
- **determinism differential** — once per run, two child processes with
  different hash seeds, clocks and RNG states compile every point (cold,
  then delta, through a fresh disk cache) and serve a fixed request
  list; every cache key, cache file and served result must have the same
  SHA-256 in both (:func:`determinism_leg`).

Any disagreement of a seed is shrunk (smaller TFG variants re-checked
under the same seed) and written to a JSON reproducer file — see
``docs/verification.md`` for the format.  The ``repro-sr fuzz`` CLI and
the CI fuzz job drive :func:`run_fuzz` over a fixed seed corpus.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.cache.keys import schedule_cache_key
from repro.cache.store import (
    VOLATILE_RESULT_FIELDS,
    ScheduleCache,
    _stable_solver_stats,
    error_to_entry,
    persist_cache_stats,
    routing_to_entry,
)
from repro.check.analyzer import analyze_schedule
from repro.core.compiler import CompilerConfig, ScheduledRouting, compile_schedule
from repro.core.executor import ScheduledRoutingExecutor
from repro.errors import ReproError, SchedulingError
from repro.mapping.allocation import Allocation, random_allocation
from repro.solvers import have_scipy
from repro.tfg.analysis import TFGTiming
from repro.tfg.synth import random_layered_tfg
from repro.topology.base import Topology
from repro.topology.hypercube import binary_hypercube
from repro.topology.mesh import Mesh
from repro.topology.torus import Torus

#: The materialized inputs of one fuzz point: (timing, topology,
#: allocation, tau_in) as returned by :meth:`FuzzPoint.build`.
PointInputs = tuple[TFGTiming, Topology, Allocation, float]

#: One backend compilation: ``("feasible", routing)`` or
#: ``("infeasible", error)``.
CompileRun = tuple[str, "ScheduledRouting | SchedulingError"]

#: Loads the seed grid draws tau_in from (tau_in = tau_c / load).
_LOADS = (0.5, 0.75, 1.0)

#: Compiler knobs kept small so a fuzz run stays CI-friendly.
_CONFIG = dict(seed=0, max_paths=16, max_restarts=2, retries=1)

#: DES replay length — warmup plus the executor's minimum measured window.
_INVOCATIONS = 8
_WARMUP = 4


def _topologies() -> dict[str, Callable[[], Topology]]:
    return {
        "cube3": lambda: binary_hypercube(3),
        "mesh33": lambda: Mesh((3, 3)),
        "torus44": lambda: Torus((4, 4)),
    }


@dataclass(frozen=True)
class FuzzPoint:
    """One deterministic problem instance, reconstructible from its fields."""

    seed: int
    layers: int
    width: int
    edge_probability: float
    topology: str
    load: float

    @staticmethod
    def from_seed(seed: int) -> "FuzzPoint":
        import random

        rng = random.Random(seed)
        layers = rng.randint(2, 3)
        width = rng.randint(1, 3)
        edge_probability = rng.uniform(0.5, 0.9)
        tasks = layers * width
        names = [
            name for name, make in _topologies().items()
            if make().num_nodes >= tasks
        ]
        return FuzzPoint(
            seed=seed,
            layers=layers,
            width=width,
            edge_probability=round(edge_probability, 3),
            topology=rng.choice(names),
            load=rng.choice(_LOADS),
        )

    def build(self) -> "PointInputs":
        """Materialize (timing, topology, allocation, tau_in)."""
        tfg = random_layered_tfg(
            self.seed,
            layers=self.layers,
            width=self.width,
            edge_probability=self.edge_probability,
            name=f"fuzz{self.seed}",
        )
        topology = _topologies()[self.topology]()
        speeds = 40.0
        tau_c = max(t.ops / speeds for t in tfg.tasks)
        max_size = max((m.size_bytes for m in tfg.messages), default=0.0)
        # Bandwidth such that the longest message fits well inside the
        # tau_c message window (tau_m <= tau_c / 1.1).
        bandwidth = max(64.0, 1.1 * max_size / tau_c)
        timing = TFGTiming(tfg, bandwidth=bandwidth, speeds=speeds)
        allocation = random_allocation(tfg, topology, self.seed)
        tau_in = timing.tau_c / self.load
        return timing, topology, allocation, tau_in

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "layers": self.layers,
            "width": self.width,
            "edge_probability": self.edge_probability,
            "topology": self.topology,
            "load": self.load,
        }


@dataclass
class PointOutcome:
    """What happened at one fuzz point."""

    point: FuzzPoint
    verdict: str = ""  # "feasible" | "infeasible" | "error"
    backends: tuple[str, ...] = ()
    disagreements: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.disagreements


@dataclass
class FuzzReport:
    """Aggregate outcome of a fuzz run."""

    outcomes: list[PointOutcome]
    reproducers: list[Path]
    #: Determinism-leg disagreements no seed owns (co-located, requests).
    determinism: list[str]
    elapsed_s: float

    @property
    def ok(self) -> bool:
        return not self.disagreements

    @property
    def disagreements(self) -> list[str]:
        seeded = [d for o in self.outcomes for d in o.disagreements]
        return seeded + self.determinism

    def summary(self) -> str:
        feasible = sum(1 for o in self.outcomes if o.verdict == "feasible")
        lines = [
            f"fuzz: {len(self.outcomes)} points "
            f"({feasible} feasible), "
            f"{len(self.disagreements)} disagreement(s), "
            f"{self.elapsed_s:.1f}s"
        ]
        lines.extend(f"  DISAGREE {d}" for d in self.disagreements)
        return "\n".join(lines)


def _entry_digest(routing: ScheduledRouting) -> str:
    """Canonical JSON digest of a compilation result (the cache entry,
    which already leaves out wall-clock solver timings)."""
    return json.dumps(
        routing_to_entry(routing), sort_keys=True, separators=(",", ":")
    )


def _error_digest(error: SchedulingError) -> str:
    return json.dumps(
        error_to_entry(error), sort_keys=True, separators=(",", ":")
    )


def _compile(
    point_inputs: "PointInputs",
    backend: str,
    cache: ScheduleCache | None = None,
) -> "CompileRun":
    """Compile one point; return ("feasible", routing) or ("infeasible", err)."""
    timing, topology, allocation, tau_in = point_inputs
    config = CompilerConfig(lp_backend=backend, **_CONFIG)
    try:
        routing = compile_schedule(
            timing, topology, allocation, tau_in, config, cache=cache
        )
        return "feasible", routing
    except SchedulingError as error:
        return "infeasible", error


def _verify_feasible(
    point: FuzzPoint,
    backend: str,
    inputs: "PointInputs",
    routing: ScheduledRouting,
    out: list[str],
) -> None:
    """Verifier differential: analyzer ≡ DES replay of Ω."""
    timing, topology, allocation, tau_in = inputs
    report = analyze_schedule(
        routing.schedule, topology, timing=timing, allocation=allocation
    )
    if not report.ok:
        out.append(
            f"seed {point.seed} [{backend}]: analyzer flagged a compiled "
            f"schedule: {report.summary()}"
        )
    try:
        executor = ScheduledRoutingExecutor(
            routing, timing, topology, allocation
        )
        executor.run(invocations=_INVOCATIONS, warmup=_WARMUP)
    except ReproError as error:
        out.append(
            f"seed {point.seed} [{backend}]: DES replay rejected a "
            f"compiled schedule: {error}"
        )


def _check_diagnoser(
    point: FuzzPoint,
    inputs: "PointInputs",
    verdicts: Mapping[str, str],
    out: list[str],
) -> None:
    """Diagnoser soundness: statically refuted ⇒ every backend infeasible.

    A refuted point still runs through both LP backends; this
    differential demands (a) no backend found the point feasible and (b)
    every refutation's witness survives the independent replay verifier.
    """
    from repro.diagnose.instance import diagnose_instance
    from repro.diagnose.verify import verify_refutation

    timing, topology, allocation, tau_in = inputs
    diagnosis = diagnose_instance(timing, topology, allocation, tau_in)
    if not diagnosis.refuted:
        return
    feasible = sorted(b for b, v in verdicts.items() if v == "feasible")
    if feasible:
        out.append(
            f"seed {point.seed}: diagnoser UNSOUND — statically refuted "
            f"({diagnosis.summary()}) yet feasible on: {', '.join(feasible)}"
        )
    for refutation in diagnosis.instance_refutations:
        problems = verify_refutation(
            timing, topology, allocation, tau_in, refutation
        )
        if problems:
            out.append(
                f"seed {point.seed}: refutation witness failed independent "
                f"replay [{refutation.kind}]: " + "; ".join(problems)
            )


def _check_cache(
    point: FuzzPoint,
    backend: str,
    inputs: "PointInputs",
    fresh: "CompileRun",
    cache_root: Path,
    out: list[str],
) -> None:
    """Cache differential: cold-store then warm-serve must equal fresh."""
    verdict, result = fresh
    cache_dir = cache_root / f"seed{point.seed}-{backend}"
    cold = _compile(inputs, backend, cache=ScheduleCache(cache_dir))
    warm = _compile(inputs, backend, cache=ScheduleCache(cache_dir))
    for label, run in (("cold", cold), ("warm", warm)):
        if run[0] != verdict:
            out.append(
                f"seed {point.seed} [{backend}]: {label}-cache verdict "
                f"{run[0]} != fresh verdict {verdict}"
            )
            return
    if verdict == "feasible":
        want = _entry_digest(result)
        for label, run in (("cold", cold), ("warm", warm)):
            if _entry_digest(run[1]) != want:
                out.append(
                    f"seed {point.seed} [{backend}]: {label}-cache schedule "
                    f"differs from fresh compilation"
                )
    else:
        want = _error_digest(result)
        for label, run in (("cold", cold), ("warm", warm)):
            if _error_digest(run[1]) != want:
                out.append(
                    f"seed {point.seed} [{backend}]: {label}-cache failure "
                    f"differs from fresh failure"
                )


def _perturb(point: FuzzPoint, inputs: "PointInputs") -> "PointInputs | None":
    """One deterministic single-element perturbation of a point's inputs.

    The seed selects the perturbation kind (message size, link drop,
    task speed); kinds that do not apply — no messages to shrink, no
    link whose removal keeps the topology usable — fall through to the
    next kind.  Returns ``None`` only when no perturbation applies.
    """
    timing, topology, allocation, tau_in = inputs
    for kind in range(point.seed % 3, point.seed % 3 + 3):
        perturbed = _PERTURBATIONS[kind % 3](point, inputs)
        if perturbed is not None:
            return perturbed
    return None


def _perturb_size(
    point: FuzzPoint, inputs: "PointInputs"
) -> "PointInputs | None":
    """Halve the first message's size; everything else unchanged."""
    from repro.tfg.graph import TaskFlowGraph

    timing, topology, allocation, tau_in = inputs
    tfg = timing.tfg
    if not tfg.messages:
        return None
    target = tfg.messages[0].name
    perturbed = TaskFlowGraph(tfg.name)
    for task in tfg.tasks:
        perturbed.add_task(task.name, task.ops)
    for message in tfg.messages:
        size = (
            message.size_bytes * 0.5
            if message.name == target
            else message.size_bytes
        )
        perturbed.add_message(message.name, message.src, message.dst, size)
    new_timing = TFGTiming(
        perturbed, bandwidth=timing.bandwidth, speeds=40.0
    )
    return new_timing, topology, allocation, tau_in


def _perturb_link(
    point: FuzzPoint, inputs: "PointInputs"
) -> "PointInputs | None":
    """Drop the first link whose removal leaves the topology usable."""
    from repro.faults.residual import ResidualTopology

    timing, topology, allocation, tau_in = inputs
    routed = [
        (allocation[m.src], allocation[m.dst])
        for m in timing.tfg.messages
        if allocation[m.src] != allocation[m.dst]
    ]
    for link in sorted(topology.links):
        residual = ResidualTopology(topology, [link])
        if all(residual.connected(u, v) for u, v in routed):
            return timing, residual, allocation, tau_in
    return None


def _perturb_speed(
    point: FuzzPoint, inputs: "PointInputs"
) -> "PointInputs | None":
    """Slow the processors 10%; tau_in keeps the point's load factor."""
    timing, topology, allocation, tau_in = inputs
    new_timing = TFGTiming(
        timing.tfg, bandwidth=timing.bandwidth, speeds=36.0
    )
    return new_timing, topology, allocation, new_timing.tau_c / point.load


_PERTURBATIONS = (_perturb_size, _perturb_link, _perturb_speed)


def _delta_digest(run: "CompileRun") -> str:
    """Digest for the delta differential: solver tallies stripped.

    A delta recompile answers reused stages from artifacts instead of
    re-solving their LPs, so solve counts and iteration tallies differ
    legitimately from a cold compile; everything else must match.
    """
    verdict, result = run
    if verdict == "feasible":
        entry = routing_to_entry(result)
        entry.pop("solver_stats", None)
        return json.dumps(entry, sort_keys=True, separators=(",", ":"))
    return _error_digest(result)


def _check_delta(
    point: FuzzPoint,
    backend: str,
    inputs: "PointInputs",
    cache_root: Path,
    out: list[str],
) -> None:
    """Delta differential: perturb one input, recompile over warm artifacts.

    The original point is compiled cold into a cache directory (storing
    its per-stage artifacts); the perturbed instance is then compiled
    over that warm directory (the delta path: its monolithic key misses,
    stage artifacts serve whatever prefix is still valid) and against a
    fresh directory (the cold reference).  Both must agree byte-for-byte
    modulo solver tallies.
    """
    perturbed = _perturb(point, inputs)
    if perturbed is None:
        return
    warm_dir = cache_root / f"seed{point.seed}-{backend}-delta"
    cold_dir = cache_root / f"seed{point.seed}-{backend}-delta-cold"
    _compile(inputs, backend, cache=ScheduleCache(warm_dir))
    delta = _compile(perturbed, backend, cache=ScheduleCache(warm_dir))
    cold = _compile(perturbed, backend, cache=ScheduleCache(cold_dir))
    if delta[0] != cold[0]:
        out.append(
            f"seed {point.seed} [{backend}]: delta-recompile verdict "
            f"{delta[0]} != cold verdict {cold[0]} on perturbed instance"
        )
        return
    if _delta_digest(delta) != _delta_digest(cold):
        out.append(
            f"seed {point.seed} [{backend}]: delta recompile differs from "
            f"cold compile of the perturbed instance"
        )


def check_point(point: FuzzPoint) -> PointOutcome:
    """Run every differential at one point and collect disagreements."""
    outcome = PointOutcome(point=point)
    backends = ["reference"] + (["highs"] if have_scipy() else [])
    outcome.backends = tuple(backends)
    try:
        inputs = point.build()
    except ReproError as error:
        outcome.verdict = "error"
        outcome.disagreements.append(
            f"seed {point.seed}: point construction failed: {error}"
        )
        return outcome

    runs = {b: _compile(inputs, b) for b in backends}
    verdicts = {b: v for b, (v, _) in runs.items()}
    outcome.verdict = verdicts[backends[0]]
    _check_diagnoser(point, inputs, verdicts, outcome.disagreements)
    if len(set(verdicts.values())) > 1:
        outcome.disagreements.append(
            f"seed {point.seed}: backends disagree on feasibility: "
            + ", ".join(f"{b}={v}" for b, v in sorted(verdicts.items()))
        )
        return outcome

    for backend in backends:
        verdict, result = runs[backend]
        if verdict == "feasible":
            _verify_feasible(
                point, backend, inputs, result, outcome.disagreements
            )

    with tempfile.TemporaryDirectory() as tmp:
        for backend in backends:
            _check_cache(
                point, backend, inputs, runs[backend], Path(tmp),
                outcome.disagreements,
            )
        # Delta differential once per point, on the fastest backend —
        # it performs three full compilations on its own.
        _check_delta(
            point, backends[-1], inputs, Path(tmp), outcome.disagreements
        )
    return outcome


# -- determinism differential ---------------------------------------------

#: ``(PYTHONHASHSEED, seconds added to time.time())`` of the leg's two
#: children: string hashes, so set and dict-of-str orders, differ between
#: them, and so do the clock and the entropy-seeded random/numpy state.
_CHILDREN = (("0", 0.0), ("4242", 31_536_000.0))

#: A child's script; the clock is skewed before ``repro`` is imported.
_CHILD = """\
import json, sys, time
clock = time.time
time.time = lambda: clock() + {skew!r}
from repro.check.fuzz import determinism_manifest
json.dump(determinism_manifest({seeds!r}), sys.stdout)
"""

#: Requests the leg serves: DVB(5) on the 6-cube as each kind of job, and
#: the 8x8 torus at B=64 (refuted by the diagnoser) diagnosed and compiled.
_REQUESTS = [
    {"kind": kind, "topology": topology, "bandwidth": bandwidth,
     "models": 5, "load": load}
    for kind, topology, bandwidth, load in (
        ("compile", "hypercube6", 128.0, 0.5),
        ("check", "hypercube6", 128.0, 0.5),
        ("diagnose", "hypercube6", 128.0, 0.5),
        ("diagnose", "torus8x8", 64.0, 1.0),
        ("compile", "torus8x8", 64.0, 1.0),
    )
]

#: Folded onto half the mesh's nodes, this point keeps four communicating
#: task pairs on one node each.  No corpus seed and no request co-locates
#: two, so without it no ``local_messages`` order is compared.
_COLOCATED = FuzzPoint(228, 3, 3, 0.9, "mesh33", 0.5)


def determinism_inputs(
    seeds: Iterable[int],
) -> Iterator[tuple[str, FuzzPoint, "PointInputs"]]:
    """``(label, point, inputs)`` of every compile the leg runs."""
    for seed in seeds:
        point = FuzzPoint.from_seed(seed)
        yield f"seed {seed}", point, point.build()
    timing, topology, allocation, tau_in = _COLOCATED.build()
    folded = {t: n % (topology.num_nodes // 2) for t, n in allocation.items()}
    yield "colocated", _COLOCATED, (timing, topology, folded, tau_in)


def _file_digests(directory: Path) -> dict[str, str]:
    """SHA-256 of every file under ``directory``, by relative path."""
    return {
        path.relative_to(directory).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*")) if path.is_file()
    }


def determinism_manifest(seeds: Iterable[int]) -> dict[str, dict[str, str]]:
    """``label -> item -> digest`` of what this process emits: per input
    of :func:`determinism_inputs`, the cache keys of the point and of its
    perturbation and every file of a fresh cache directory after the cold
    compile, the delta compile and ``persist_cache_stats``; per request
    of :data:`_REQUESTS`, the served result less its volatile fields and
    every file of its cache directory."""
    from repro.serve.jobs import JobRequest
    from repro.serve.worker import execute_request

    backend = "highs" if have_scipy() else "reference"
    config = CompilerConfig(lp_backend=backend, **_CONFIG)
    manifest: dict[str, dict[str, str]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for label, point, inputs in determinism_inputs(seeds):
            directory = Path(tmp) / label
            cache = ScheduleCache(directory)
            items = {"key": schedule_cache_key(*inputs, config)}
            _compile(inputs, backend, cache=cache)
            perturbed = _perturb(point, inputs)
            if perturbed is not None:
                items["delta key"] = schedule_cache_key(*perturbed, config)
                _compile(perturbed, backend, cache=cache)
            persist_cache_stats(directory, cache.stats)
            manifest[label] = {**items, **_file_digests(directory)}
        for number, payload in enumerate(_REQUESTS):
            directory = Path(tmp) / f"request{number}"
            request = JobRequest.from_payload(payload).canonical()
            result = execute_request({"request": request, "cache_dir": str(directory)})
            for name in VOLATILE_RESULT_FIELDS:
                result.pop(name, None)
            result["solver_stats"] = _stable_solver_stats(result.get("solver_stats"))
            blob = json.dumps(result, sort_keys=True).encode()
            manifest["request " + " ".join(map(str, payload.values()))] = {
                "result": hashlib.sha256(blob).hexdigest(),
                **_file_digests(directory),
            }
    return manifest


def determinism_leg(seeds: Sequence[int]) -> dict[str, str]:
    """The cross-process byte differential: ``label -> disagreement``,
    empty when both :data:`_CHILDREN` emit the same manifest."""
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    children = [
        subprocess.Popen(
            [sys.executable, "-c",
             _CHILD.format(skew=skew, seeds=list(seeds))],
            env=dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for hash_seed, skew in _CHILDREN
    ]
    outputs = [child.communicate() for child in children]
    for (hash_seed, _), child, (_, err) in zip(_CHILDREN, children, outputs):
        if child.returncode != 0:
            last = (err.strip().splitlines() or ["no output"])[-1]
            return {"determinism leg": f"child with PYTHONHASHSEED="
                    f"{hash_seed} exited {child.returncode}: {last}"}
    first, second = (json.loads(out) for out, _ in outputs)
    moved: dict[str, str] = {}
    for label in sorted(first.keys() | second.keys()):
        mine, theirs = first.get(label, {}), second.get(label, {})
        items = sorted(
            item for item in mine.keys() | theirs.keys()
            if mine.get(item) != theirs.get(item)
        )
        if items:
            moved[label] = "bytes differ between two processes: " + ", ".join(items)
    return moved


def shrink_point(point: FuzzPoint, attempts: int = 6) -> FuzzPoint:
    """Greedily look for a smaller point showing the same kind of failure.

    Tries progressively smaller (layers, width) variants of the failing
    point; returns the smallest variant that still disagrees, or the
    original point when none does.  Bounded by ``attempts`` re-checks.
    """
    best = point
    tried = 0
    for layers in range(2, point.layers + 1):
        for width in range(1, point.width + 1):
            if (layers, width) >= (best.layers, best.width):
                continue
            if tried >= attempts:
                return best
            tried += 1
            candidate = FuzzPoint(
                seed=point.seed,
                layers=layers,
                width=width,
                edge_probability=point.edge_probability,
                topology=point.topology,
                load=point.load,
            )
            if not check_point(candidate).ok:
                return candidate
    return best


def write_reproducer(
    outcome: PointOutcome, out_dir: Path
) -> Path:
    """Serialize a failing point so ``repro-sr fuzz --seed N`` replays it."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"fuzz-{outcome.point.seed}.json"
    payload = {
        "format": "repro.fuzz-reproducer/1",
        "point": outcome.point.to_dict(),
        "backends": list(outcome.backends),
        "disagreements": outcome.disagreements,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def run_fuzz(
    seeds: Iterable[int] | Sequence[int],
    out_dir: str | Path | None = None,
    progress: Callable[[str], None] | None = None,
) -> FuzzReport:
    """Fuzz every seed, then run the determinism leg over all of them;
    shrink a disagreeing seed's point and write a reproducer for it."""
    started = time.perf_counter()
    seeds = list(seeds)
    outcomes: list[PointOutcome] = []
    for seed in seeds:
        point = FuzzPoint.from_seed(seed)
        outcome = check_point(point)
        if not outcome.ok:
            small = shrink_point(point)
            if small != point:
                shrunk = check_point(small)
                if not shrunk.ok:
                    outcome = shrunk
        outcomes.append(outcome)
        if progress is not None:
            status = "ok" if outcome.ok else "DISAGREE"
            progress(
                f"seed {seed}: {outcome.verdict or 'error'} "
                f"[{','.join(outcome.backends)}] {status}"
            )
    by_label = {f"seed {o.point.seed}": o.disagreements for o in outcomes}
    determinism: list[str] = []
    for label, disagreement in determinism_leg(seeds).items():
        by_label.get(label, determinism).append(f"{label}: {disagreement}")
    reproducers = (
        [write_reproducer(o, Path(out_dir)) for o in outcomes if not o.ok]
        if out_dir is not None
        else []
    )
    return FuzzReport(
        outcomes=outcomes,
        reproducers=reproducers,
        determinism=determinism,
        elapsed_s=time.perf_counter() - started,
    )
