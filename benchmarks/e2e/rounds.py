"""Round workloads: whole rounds of a fixed, seeded op list.

``matrix_cold``, ``cache_replay``, ``pipeline_sim`` and ``cli_oneshot``.
Ops are timed one by one; outcomes are taken between ops, untimed, and
checked after the window.  In a traced run odd rounds run the traced
variant of every op, so one process yields both sides of
``bench.trace_overhead_share``.

Every reading is divided by the machine's slowdown measured right
before and after the op (``calibrate.py`` says why), and an op's time is
its best such reading over the rounds (:func:`best_of_rounds`): on raw
medians identical runs read 25-45 % apart, on these 3-5 %.
``cli_oneshot`` is measured against the reference process instead of the
chunk, and takes the median over its two or three rounds.
"""

from __future__ import annotations

import contextlib
import json
import re
import resource
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from benchmarks.e2e import calibrate, inputs, spans, stats
from benchmarks.e2e.compile_op import (
    compile_layers,
    compile_outcome,
    plain_compile,
    sha,
    traced_compile,
    warm_solver,
)

from repro.cache import (
    ScheduleCache,
    entry_to_routing,
    routing_to_entry,
    schedule_cache_key,
)
from repro.check import analyze_schedule
from repro.core.compiler import CompilerConfig, compile_schedule
from repro.errors import SchedulingError, SimulationError

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected" / "seed0.json"


@dataclass
class Measurement:
    """What one timed window produced (see ``names.END_TO_END``)."""

    ops_per_s: float
    op_p50_ms: float
    op_p90_ms: float
    percentile_samples: int
    cpu_ms_per_op: float
    peak_rss_mb: float
    attempted: int
    failures: list[str]
    rounds: int
    first_op_over_p50: float
    #: Median slowdown over the window, and the four timings as read
    #: before dividing by it op by op.
    slowdown: float = 1.0
    raw: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    trace: list[list] = field(default_factory=list)
    #: op identity -> outcome; what ``--write-expected`` pins.
    observed: dict[str, Any] = field(default_factory=dict)


def spec_key(spec: dict[str, Any]) -> str:
    """Seed-independent identity of an op (the key of expected/seed0.json)."""
    return inputs.op_id(0, spec).split("/", 1)[1]


def load_expected(workload: str) -> dict[str, Any]:
    if not EXPECTED.exists():
        return {}
    return json.loads(EXPECTED.read_text()).get(workload, {})


def best_of_rounds(rounds: list[list[float]]) -> list[float]:
    """Per op, its smallest reading over the rounds."""
    return [min(readings) for readings in zip(*rounds)]


def median_of_rounds(rounds: list[list[float]]) -> list[float]:
    """Per op, its median reading over the rounds."""
    return [stats.median(readings) for readings in zip(*rounds)]


def times_sha(times) -> str:
    return sha([round(float(t), 6) for t in times])


#: Rounds a window holds whatever they take: the across-round outcome
#: check needs two (a traced run, two of each kind).
MIN_ROUNDS = 2


class RoundWorkload:
    name = ""
    #: An op's time out of its readings over the rounds.
    over_rounds = staticmethod(best_of_rounds)

    def __init__(self, seed: int, workdir: Path, trace: bool) -> None:
        self.workdir = workdir
        self.trace = trace
        self.specs = inputs.op_list(self.name, seed)
        self.ids = [inputs.op_id(i, s) for i, s in enumerate(self.specs)]
        self.counters: dict[str, float] = defaultdict(float)
        self.first_outcomes: list[dict[str, Any]] = []

    # -- hooks ---------------------------------------------------------------

    def setup(self) -> None:
        """Everything before the first timed op, the warm op included."""
        raise NotImplementedError

    def begin_round(self) -> None:
        """Untimed preparation of one round."""

    def run_op(self, index: int) -> Any:
        raise NotImplementedError

    def run_op_traced(self, index: int, tracer: spans.Tracer) -> Any:
        raise NotImplementedError

    def outcome(self, index: int, result: Any) -> dict[str, Any]:
        """JSON-able summary of an op's result (untimed)."""
        raise NotImplementedError

    def check_op(self, index: int, outcome: dict[str, Any]) -> list[str]:
        """What is wrong with one outcome on any seed."""
        return []

    def check_window(self) -> list[str]:
        """Checks made once, after the window."""
        return []

    def layers(self, span_list) -> dict[str, float]:
        """Per-layer figures out of one traced instance of every op."""
        raise NotImplementedError

    def slowdown_sample(self) -> float:
        """The machine's slowdown right now, for the kind of work an op is."""
        return calibrate.slowdown(calibrate.chunk_s())

    def cpu_clock(self) -> float:
        return time.process_time()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        """Release what set-up opened (also on a failed run)."""

    # -- driver --------------------------------------------------------------

    def measure(self, seconds: float) -> Measurement:
        count = len(self.specs)
        tracer = spans.Tracer()
        walls: list[list[float]] = []       # per round, per op, seconds
        cpus: list[list[float]] = []
        slowdowns: list[list[float]] = []
        round_s: list[float] = []           # whole rounds, calibration too
        traced_rounds: list[bool] = []
        outcomes: list[list[dict[str, Any]]] = []
        min_rounds = MIN_ROUNDS * (2 if self.trace else 1)
        began = time.perf_counter()
        while True:
            number = len(walls)
            traced = self.trace and number % 2 == 1
            if traced:
                self.counters.clear()    # they hold one round's counts
            round_began = time.perf_counter()
            self.begin_round()
            round_walls, round_cpus, round_outcomes = [], [], []
            samples = [self.slowdown_sample()]
            for index in range(count):
                cpu_before = self.cpu_clock()
                start = time.perf_counter()
                if traced:
                    # A round repeats the ops: span op ids carry the round.
                    with tracer.span("op", op=f"{number}#{self.ids[index]}"):
                        result = self.run_op_traced(index, tracer)
                else:
                    result = self.run_op(index)
                round_walls.append(time.perf_counter() - start)
                round_cpus.append(self.cpu_clock() - cpu_before)
                samples.append(self.slowdown_sample())
                round_outcomes.append(self.outcome(index, result))
            walls.append(round_walls)
            cpus.append(round_cpus)
            slowdowns.append([
                (before + after) / 2.0
                for before, after in zip(samples, samples[1:])
            ])
            traced_rounds.append(traced)
            outcomes.append(round_outcomes)
            now = time.perf_counter()
            round_s.append(now - round_began)
            if (len(walls) >= min_rounds
                    and now - began + stats.median(round_s) > seconds):
                break

        def at_reference(readings, rounds):
            """Per op, its time over ``rounds`` at reference speed."""
            return self.over_rounds([
                [value / slow for value, slow in
                 zip(readings[n], slowdowns[n])]
                for n in rounds
            ])

        plain = [n for n, traced in enumerate(traced_rounds) if not traced]
        op_s = at_reference(walls, plain)
        op_ms = [seconds * 1000.0 for seconds in op_s]
        cpu_s = at_reference(cpus, plain)
        raw_s = self.over_rounds([walls[n] for n in plain])
        self.first_outcomes = outcomes[0]
        measurement = Measurement(
            ops_per_s=count / sum(op_s),
            op_p50_ms=stats.percentile(op_ms, 0.5),
            op_p90_ms=stats.percentile(op_ms, 0.9),
            percentile_samples=count,
            cpu_ms_per_op=sum(cpu_s) * 1000.0 / count,
            peak_rss_mb=self.peak_rss_mb(),
            attempted=count * len(walls),
            failures=self._failures(outcomes) + self.check_window(),
            rounds=len(walls),
            first_op_over_p50=(
                walls[0][0] / slowdowns[0][0] * 1000.0 / op_ms[0]),
            slowdown=stats.median([s for r in slowdowns for s in r]),
            raw={
                "ops_per_s": count / sum(raw_s),
                "op_p50_ms": stats.percentile(raw_s, 0.5) * 1000.0,
                "op_p90_ms": stats.percentile(raw_s, 0.9) * 1000.0,
                "cpu_ms_per_op": sum(self.over_rounds(
                    [cpus[n] for n in plain])) * 1000.0 / count,
            },
            observed={spec_key(spec): outcomes[0][i]
                      for i, spec in enumerate(self.specs)},
        )
        if self.trace:
            # Per op, the spans of the traced round in which it ran best.
            slow = [n for n, traced in enumerate(traced_rounds) if traced]
            best = [min(slow, key=lambda n: walls[n][i] / slowdowns[n][i])
                    for i in range(count)]
            chosen = spans.select(
                tracer.spans,
                {f"{n}#{self.ids[i]}": slowdowns[n][i]
                 for i, n in enumerate(best)})
            layers = self.layers(chosen)
            layers["bench.trace_overhead_share"] = (
                1.0 - sum(op_s) / sum(at_reference(walls, slow)))
            layers["bench.unattributed_share"] = spans.unattributed_share(
                chosen)
            layers["bench.first_op_over_p50"] = measurement.first_op_over_p50
            measurement.layers = layers
            measurement.trace = tracer.spans
        return measurement

    def _failures(self, outcomes) -> list[str]:
        """One entry per (round, op) whose outcome is wrong: it breaks an
        invariant, differs from round 0 (traced rounds included), or
        disagrees with expected/seed0.json."""
        expected = load_expected(self.name)
        failures = []
        for number, round_outcomes in enumerate(outcomes):
            for index, outcome in enumerate(round_outcomes):
                problems = list(self.check_op(index, outcome))
                if outcome != outcomes[0][index]:
                    problems.append("differs from round 0")
                want = expected.get(spec_key(self.specs[index]))
                if want is not None and outcome != want:
                    problems.append(f"expected {want}, got {outcome}")
                failures.extend(
                    f"round {number} op {self.ids[index]}: {problem}"
                    for problem in problems
                )
        return failures


class MatrixCold(RoundWorkload):
    name = "matrix_cold"

    def setup(self) -> None:
        self.instances = inputs.Instances()
        self.config = inputs.compiler_config()
        self.problems = [self.instances.compile_op(s) for s in self.specs]
        self.analyzed: dict[int, bool] = {}
        warm_solver()
        self.run_op(0)

    def run_op(self, index):
        return plain_compile(self.problems[index], self.config)

    def run_op_traced(self, index, tracer):
        return traced_compile(tracer, self.counters, self.problems[index],
                              self.config)

    def outcome(self, index, result):
        outcome = compile_outcome(result)
        if outcome["verdict"] == "OK":
            # The digest check makes every round's schedule the same one:
            # analyze it once per op.
            if index not in self.analyzed:
                timing, topology, allocation, _ = self.problems[index]
                self.analyzed[index] = analyze_schedule(
                    result.schedule, topology, timing=timing,
                    allocation=allocation,
                ).ok
            outcome["analyzer_ok"] = self.analyzed[index]
        return outcome

    def check_op(self, index, outcome):
        if outcome.get("analyzer_ok") is False:
            return ["analyzer findings on an OK schedule"]
        return []

    def layers(self, span_list):
        layers = compile_layers(span_list, self.counters, len(self.specs))
        feasible = [o for o in self.first_outcomes if o["verdict"] == "OK"]
        layers["core.commands"] = (
            sum(o["commands"] for o in feasible) / max(len(feasible), 1))
        layers["core.verdict_ok_share"] = (
            len(feasible) / len(self.first_outcomes))
        layers["experiments.setup_ms"] = stats.median(self.instances.setup_ms)
        slow = calibrate.slowdown_now()
        pool_ms = []
        for timing, topology, allocation, _ in self.problems:
            began = time.perf_counter()
            for message in timing.tfg.messages:
                src, dst = allocation[message.src], allocation[message.dst]
                if src != dst:
                    topology.minimal_path_pool(src, dst, self.config.max_paths)
            pool_ms.append((time.perf_counter() - began) * 1000.0 / slow)
        layers["topology.path_pool_ms"] = sum(pool_ms) / len(pool_ms)
        return layers


class CacheReplay(RoundWorkload):
    name = "cache_replay"
    BANDWIDTH = 128.0
    SIZE_SCALE = 0.75

    def setup(self) -> None:
        self.instances = inputs.Instances()
        self.config = inputs.compiler_config()
        self.filled = self.workdir / "cache-filled"
        self.round_dir = self.workdir / "cache-round"
        self.live: dict[tuple, ScheduleCache] = {}
        self.artifact_stats: list[dict] = []
        self.problems = []
        for spec in self.specs:
            name, load = spec["topology"], spec["load"]
            if spec["class"] == "delta_linkdrop":
                setup = self.instances.link_dropped(
                    name, self.BANDWIDTH, self.config.max_paths)
            elif spec["class"] == "delta_sizescale":
                setup = self.instances.size_scaled(
                    name, self.BANDWIDTH, self.SIZE_SCALE)
            else:
                setup = self.instances.dvb_setup(5, name, self.BANDWIDTH)
            self.problems.append((setup.timing, setup.topology,
                                  setup.allocation,
                                  setup.tau_in_for_load(load)))
        warm_solver()
        # The write path: cold compile + store + artifact stores.
        writer = ScheduleCache(self.filled)
        for spec, problem in zip(self.specs, self.problems):
            if spec["class"] == "hit_disk":
                plain_compile(problem, self.config, cache=writer)
        self.begin_round()
        for index in range(len(inputs.CACHE_CLASSES)):
            self.run_op(index)

    def begin_round(self) -> None:
        """Every round works on a fresh copy of the filled directory, so
        a delta op never finds what an earlier round's delta stored."""
        shutil.rmtree(self.round_dir, ignore_errors=True)
        shutil.copytree(self.filled, self.round_dir)
        self.live = {}
        self.artifact_stats = []

    def _cache(self, index) -> ScheduleCache:
        spec = self.specs[index]
        point = (spec["topology"], spec["load"])
        if spec["class"] == "hit_mem":
            return self.live[point]
        cache = ScheduleCache(self.round_dir)
        if spec["class"] == "hit_disk":
            self.live[point] = cache
        return cache

    def run_op(self, index):
        cache = self._cache(index)
        return plain_compile(self.problems[index], self.config, cache), cache

    def run_op_traced(self, index, tracer):
        cache = self._cache(index)
        return traced_compile(tracer, self.counters, self.problems[index],
                              self.config, cache), cache

    def outcome(self, index, result):
        routing, cache = result
        outcome = compile_outcome(routing)
        outcome.pop("commands", None)
        counters = cache.stats.as_dict()
        cls = self.specs[index]["class"]
        # A hit_mem cache object already served its point's hit_disk.
        outcome["hits"] = counters["hits"] - (cls == "hit_mem")
        if cls.startswith("delta"):
            self.artifact_stats.append(counters.get("stages", {}))
        return outcome

    def check_op(self, index, outcome):
        cls = self.specs[index]["class"]
        if cls.startswith("hit") and outcome["hits"] != 1:
            return [f"{cls} op was not served from the cache"]
        if cls.startswith("delta") and outcome["hits"] != 0:
            return [f"{cls} op hit the monolithic key"]
        return []

    def layers(self, span_list):
        layers = compile_layers(span_list, self.counters, len(self.specs))
        op_ms: dict[str, list[float]] = defaultdict(list)
        fetch_ms: dict[str, list[float]] = defaultdict(list)
        classes = {self.ids[i]: s["class"] for i, s in enumerate(self.specs)}
        for span in span_list:
            ms = (span[spans.END] - span[spans.START]) * 1000.0
            cls = classes[span[spans.OP].split("#", 1)[1]]
            if span[spans.NAME] == "cache.fetch":
                fetch_ms[cls].append(ms)
            elif span[spans.PARENT] is None:
                op_ms[cls].append(ms)
        delta_ms = op_ms["delta_linkdrop"] + op_ms["delta_sizescale"]
        stages = [s for per_op in self.artifact_stats for s in per_op.values()]
        deltas = max(len(self.artifact_stats), 1)
        hit_ops = sum(1 for s in self.specs if s["class"].startswith("hit"))
        layers.update({
            "cache.key_ms":
                stats.median(spans.durations_ms(span_list, "cache.key")),
            "cache.store_ms":
                stats.median(spans.durations_ms(span_list, "cache.store")),
            "cache.fetch_mem_ms": stats.median(fetch_ms["hit_mem"]),
            "cache.fetch_disk_ms": stats.median(fetch_ms["hit_disk"]),
            "cache.delta_linkdrop_ms": stats.median(op_ms["delta_linkdrop"]),
            "cache.delta_sizescale_ms":
                stats.median(op_ms["delta_sizescale"]),
            "cache.delta_over_cold":
                stats.median(delta_ms) / stats.median(self._cold_delta_ms()),
            "cache.artifact_hits": sum(s["hits"] for s in stages) / deltas,
            "cache.artifact_misses":
                sum(s["misses"] for s in stages) / deltas,
            "cache.artifact_stores":
                sum(s["stores"] for s in stages) / deltas,
            "cache.hit_rate": hit_ops / len(self.specs),
            "experiments.setup_ms": stats.median(self.instances.setup_ms),
        })
        layers.update(self._codec_probe())
        return layers

    def _codec_probe(self) -> dict[str, float]:
        """Encode, decode and size of the stored entries, timed at the
        public codec functions ``fetch``/``store`` call inside."""
        decode_ms, encode_ms, sizes = [], [], []
        slow = calibrate.slowdown_now()
        for spec, problem in zip(self.specs, self.problems):
            if spec["class"] != "hit_disk":
                continue
            timing, topology, allocation, tau_in = problem
            key = schedule_cache_key(timing, topology, allocation, tau_in,
                                     self.config)
            path = self.filled / key[:2] / f"{key}.json"
            sizes.append(path.stat().st_size)
            entry = json.loads(path.read_text())
            if entry["kind"] != "schedule":
                continue
            began = time.perf_counter()
            routing = entry_to_routing(entry, topology, key)
            decode_ms.append((time.perf_counter() - began) * 1000.0 / slow)
            began = time.perf_counter()
            routing_to_entry(routing)
            encode_ms.append((time.perf_counter() - began) * 1000.0 / slow)
        return {
            "cache.decode_ms": stats.median(decode_ms),
            "cache.encode_ms": stats.median(encode_ms),
            "cache.entry_bytes": stats.median(sizes),
            "cache.dir_bytes": float(sum(
                p.stat().st_size for p in self.filled.rglob("*.json"))),
        }

    def _cold_delta_ms(self) -> list[float]:
        """The delta instances compiled with no cache: the ratio's base."""
        cold_ms = []
        slow = calibrate.slowdown_now()
        for spec, problem in zip(self.specs, self.problems):
            if spec["class"].startswith("delta"):
                began = time.perf_counter()
                plain_compile(problem, self.config)
                cold_ms.append((time.perf_counter() - began) * 1000.0 / slow)
        return cold_ms

class PipelineSim(RoundWorkload):
    name = "pipeline_sim"
    RUN = {"invocations": inputs.SIM_INVOCATIONS, "warmup": inputs.SIM_WARMUP}

    def setup(self) -> None:
        from repro.core.executor import ScheduledRoutingExecutor
        from repro.metrics.jitter import jitter_report
        from repro.wormhole import WormholeSimulator

        self.wormhole = WormholeSimulator
        self.executor = ScheduledRoutingExecutor
        self.jitter_report = jitter_report
        self.instances = inputs.Instances()
        config = inputs.compiler_config()
        warm_solver()
        self.problems, self.routings = [], []
        for spec in self.specs:
            problem = self.instances.dvb(5, spec["topology"], 128.0,
                                         spec["load"])
            self.problems.append(problem)
            self.routings.append(compile_schedule(*problem, config))
        self.run_op(0)

    def _run(self, index, span):
        timing, topology, allocation, tau_in = self.problems[index]
        routing = self.routings[index]
        with span("wormhole.run"):
            try:
                wr = self.wormhole(timing, topology, allocation).run(
                    tau_in, **self.RUN)
            except SimulationError:    # recovery budget exhausted
                wr = None
        with span("check.analyze"):
            report = analyze_schedule(routing.schedule, topology,
                                      timing=timing, allocation=allocation)
        with span("executor.run"):
            sr = self.executor(routing, timing, topology, allocation).run(
                **self.RUN)
        with span("metrics.jitter"):
            jitter = self.jitter_report(sr.measured_completions, tau_in)
            if wr is not None:
                wr.jitter()
        return wr, report, sr, jitter

    def run_op(self, index):
        return self._run(index, lambda name: contextlib.nullcontext())

    def run_op_traced(self, index, tracer):
        return self._run(index, tracer.span)

    def outcome(self, index, result):
        wr, report, sr, jitter = result
        return {
            "wr": "deadlock" if wr is None else times_sha(wr.completion_times),
            "wr_oi": None if wr is None else wr.has_oi(),
            "wr_recoveries":
                None if wr is None else wr.extra.get("recoveries", 0),
            "sr": times_sha(sr.completion_times),
            "sr_oi": sr.has_oi(),
            "sr_jitter_free": jitter.is_jitter_free,
            "findings": len(report.findings),
            "analyzer_ok": report.ok,
        }

    def check_op(self, index, outcome):
        problems = []
        if not outcome["analyzer_ok"]:
            problems.append("analyzer findings on a compiled schedule")
        if outcome["sr_oi"] or not outcome["sr_jitter_free"]:
            problems.append("scheduled routing shows output inconsistency")
        return problems

    def layers(self, span_list):
        from repro.core.verify import verify_schedule
        from repro.sim import Environment

        table = spans.per_op_ms(span_list)
        first = self.first_outcomes
        routed = sum(
            sum(1 for m in timing.tfg.messages
                if allocation[m.src] != allocation[m.dst])
            for timing, _, allocation, _ in self.problems
        )
        slots = sum(sum(len(s) for s in routing.schedule.slots.values())
                    for routing in self.routings)
        wr_s = sum(table["wormhole.run"].values()) / 1000.0
        sr_s = sum(table["executor.run"].values()) / 1000.0
        layers = {
            name + "_ms": spans.ms_per_op(table, name, len(self.specs))
            for name in ("wormhole.run", "executor.run", "check.analyze",
                         "metrics.jitter")
        }
        layers.update({
            "wormhole.flights_per_s":
                inputs.SIM_INVOCATIONS * routed / wr_s,
            "executor.flights_per_s":
                inputs.SIM_INVOCATIONS * slots / sr_s,
            "wormhole.recoveries":
                sum(o["wr_recoveries"] or 0 for o in first) / len(first),
            "wormhole.oi_share":
                sum(bool(o["wr_oi"]) for o in first) / len(first),
            "check.findings": float(sum(o["findings"] for o in first)),
            "experiments.setup_ms": stats.median(self.instances.setup_ms),
        })

        slow = calibrate.slowdown_now()
        began = time.perf_counter()
        verify_schedule(self.routings[0], *self.problems[0][:3])
        layers["check.verify_ms"] = (
            (time.perf_counter() - began) * 1000.0 / slow)

        # The DES kernel alone: N generator processes x M timeouts.
        processes = timeouts = 200
        env = Environment()

        def ticker():
            for _ in range(timeouts):
                yield env.timeout(1.0)

        for _ in range(processes):
            env.process(ticker())
        began = time.perf_counter()
        env.run()
        layers["sim.events_per_s"] = (
            processes * timeouts * slow / (time.perf_counter() - began))
        return layers


CLI_LINE = re.compile(
    r"feasible: U=(\S+), (\d+) maximal subsets, (\d+) switching commands "
    r"over (\d+) nodes"
)


class CliOneshot(RoundWorkload):
    name = "cli_oneshot"
    #: The best of two or three quotients of two process times would pick
    #: the round in which the reference process ran slow.
    over_rounds = staticmethod(median_of_rounds)

    def setup(self) -> None:
        # No warm op and no solver import: every op is a fresh process,
        # and start-up is what this workload measures.
        self.argv = [
            ["compile", "--topology", spec["topology"], "--bandwidth", "128",
             "--load", str(spec["load"])]
            for spec in self.specs
        ]
        self.inproc_ms: list[float] = []

    def slowdown_sample(self) -> float:
        return calibrate.process_slowdown()

    def cpu_clock(self) -> float:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def run_op(self, index):
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", *self.argv[index]],
            capture_output=True, text=True, timeout=120,
        )
        return done.returncode, done.stdout

    def run_op_traced(self, index, tracer):
        """The same CLI call under ``cli_probe.py``, which reports when
        the interpreter was up, ``repro.cli`` imported, the solver
        imported and ``main()`` back."""
        spawned = time.perf_counter()
        wall = time.time()
        done = subprocess.run(
            [sys.executable, str(HERE / "cli_probe.py"), *self.argv[index]],
            capture_output=True, text=True, timeout=120,
        )
        lines = done.stdout.splitlines(keepends=True)
        marks = json.loads(lines.pop().split(" ", 1)[1])
        # The probe's wall-clock marks, on this process's span clock.
        at = [spawned + (mark - wall) for mark in marks]
        parent = tracer.current
        op = tracer.spans[parent][spans.OP]
        for name, start, end in (
            ("cli.interpreter", spawned, at[0]),
            ("cli.import_repro", at[0], at[1]),
            ("cli.import_solver", at[1], at[2]),
            ("cli.compile", at[2], at[3]),
        ):
            tracer.add(name, start, end, parent=parent, op=op)
        return done.returncode, "".join(lines)

    def outcome(self, index, result):
        returncode, stdout = result
        return {"returncode": returncode, "stdout": sha(stdout),
                "line": stdout.splitlines()[0] if stdout else ""}

    def check_op(self, index, outcome):
        if outcome["returncode"] not in (0, 1):
            return [f"CLI exited {outcome['returncode']}"]
        return []

    def check_window(self):
        """The printed schedule summary must be the one an in-process
        compile of the same point gives (also ``cli.compile_inproc_ms``,
        the floor a one-shot compile could reach)."""
        failures = []
        instances = inputs.Instances()
        config = CompilerConfig()
        slow = calibrate.slowdown_now()
        for index, spec in enumerate(self.specs):
            problem = instances.dvb(8, spec["topology"], 128.0, spec["load"])
            plain_compile(problem, config)    # warm, untimed
            began = time.perf_counter()
            routing = plain_compile(problem, config)
            self.inproc_ms.append(
                (time.perf_counter() - began) * 1000.0 / slow)
            seen = self.first_outcomes[index]
            match = CLI_LINE.match(seen["line"])
            if isinstance(routing, SchedulingError):
                agrees = match is None and seen["returncode"] == 1
            else:
                agrees = match is not None and (
                    match.group(1) == f"{routing.utilization.peak:.4f}"
                    and int(match.group(2)) == len(routing.subsets)
                    and int(match.group(3)) == routing.schedule.num_commands
                )
            if not agrees:
                failures.append(
                    f"op {self.ids[index]}: CLI printed {seen['line']!r}, "
                    "the in-process compile disagrees")
        return failures

    def layers(self, span_list):
        table = spans.per_op_ms(span_list)
        layers = {
            f"cli.{name}_ms":
                spans.ms_per_op(table, f"cli.{name}", len(self.specs))
            for name in ("interpreter", "import_repro", "import_solver")
        }
        layers["cli.compile_inproc_ms"] = stats.median(self.inproc_ms)
        return layers
