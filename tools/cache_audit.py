#!/usr/bin/env python3
"""``python tools/cache_audit.py``: per cache layer, does a hit beat recomputing?

Runs the ``cache_replay`` grid (DVB(5), B = 128, four machines, three loads)
and prints, for each layer ``ScheduleCache`` holds and for the two PR 22
deleted (kept as the record of why), the range over the points that compile of
the median ``compute | store | replay(disk) | replay(mem)`` ms and entry bytes.
A row whose replay is no faster than its compute at some point is marked: that
layer has stopped earning its keep.  A last line says what a cached cold
compile pays the disk tier: files created, ``put`` calls and ms inside them.
Prints, gates nothing.
"""

import itertools
import os
import statistics
import sys
import tempfile
import time
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.e2e import inputs  # noqa: E402
from repro.cache import (CACHE_VERSION, DeltaState, ScheduleCache,  # noqa: E402
                         diagnosis_cache_key, schedule_cache_key)
from repro.core import pipeline  # noqa: E402
from repro.core.compiler import CompilerConfig, compile_schedule  # noqa: E402
from repro.core.io import schedule_from_dict, schedule_to_dict  # noqa: E402
from repro.core.utilization import utilization_report  # noqa: E402
from repro.diagnose.instance import diagnose_instance  # noqa: E402
from repro.errors import SchedulingError  # noqa: E402
from repro.experiments.setup import InstanceSpec  # noqa: E402

CONFIG = CompilerConfig(**inputs.COMPILER_FIELDS)


def audit(rows, tmp, layer, keys, compute, store, replay) -> None:
    """One layer at one point: the median ms of seven calls of each thunk, in
    this order (``replay(cache)`` must hit), and the bytes under ``keys``."""
    warm = ScheduleCache(tmp)
    thunks = (compute, store, lambda: replay(ScheduleCache(tmp)), lambda: replay(warm))
    took = [statistics.median(timeit.repeat(thunk, number=1, repeat=7)) * 1000.0
            for thunk in thunks]
    rows.setdefault(layer, []).append((*took, sum(entry_bytes(tmp, k) for k in keys)))


def entry_bytes(tmp, key: str) -> int:
    """Bytes of one entry's JSON: its own file, or (an artifact) the body of
    the key's last record in the directory's pack."""
    path = Path(tmp) / key[:2] / f"{key}.json"
    if path.exists():
        return path.stat().st_size
    head = key.encode() + b"\t"
    lines = (Path(tmp) / "artifacts.pack").read_bytes().split(b"\n")
    return len([line for line in lines if line.startswith(head)][-1]) - len(head)


def cold_cost(problem) -> tuple[int, int, float]:
    """(files created, ``put`` calls, ms inside them) of one cached cold
    compile into an empty directory."""
    with tempfile.TemporaryDirectory() as fresh:
        cache, spent = ScheduleCache(fresh), []
        put = cache.put

        def timed_put(*args) -> None:
            began = time.perf_counter()
            put(*args)
            spent.append(time.perf_counter() - began)

        cache.put = timed_put  # DeltaState and store() both call through it
        compile_schedule(*problem, CONFIG, cache=cache)
        files = sum(len(names) for _, _, names in os.walk(fresh))
    return files, len(spent), sum(spent) * 1000.0


def audit_point(rows, tmp, name: str, load: float) -> None:
    setup = InstanceSpec(name, 128.0, models=5).build()
    problem = (setup.timing, setup.topology, setup.allocation, setup.tau_in_for_load(load))
    cache, key = ScheduleCache(tmp), schedule_cache_key(*problem, CONFIG)
    try:
        routing = compile_schedule(*problem, CONFIG)
    except SchedulingError:
        return  # refused: its 290-byte failure entry replays in 0.05 ms
    rows.setdefault("cold", []).append(cold_cost(problem))
    audit(rows, tmp, "schedule entry", [key], lambda: compile_schedule(*problem, CONFIG),
          lambda: cache.store(key, routing), lambda c: c.fetch(key, setup.topology))
    dkey, found = diagnosis_cache_key(*problem), diagnose_instance(*problem)
    audit(rows, tmp, "diagnosis", [dkey], lambda: diagnose_instance(*problem),
          lambda: cache.put(dkey, {"format": CACHE_VERSION, "kind": "diagnosis",
                                   "diagnosis": found.to_dict()}),
          lambda c: diagnose_instance(*problem, cache=c))
    # The stages of the attempt that compiled, run over their own context.
    delta = DeltaState(cache, *problem, CONFIG)
    ctx = pipeline.CompilationContext(
        tau_in=problem[3], config=CONFIG, timing=setup.timing,
        topology=setup.topology, allocation=setup.allocation, delta=delta)
    pipeline.TimeBoundsStage().run(ctx)  # records the bounds digest in ``delta``
    ctx.reset_attempt(CONFIG.seed + routing.attempts - 1, routing.attempts)
    assign, gate, subsets, intervals, build = pipeline.compile_stages(CONFIG)

    def run(stage, cached=None):
        # ``is None``, not truth: an empty ScheduleCache is falsy.
        ctx.delta = None if cached is None else DeltaState(cached, *problem, CONFIG)
        if cached is not None:
            ctx.delta.record_bounds(ctx.bounds)
        if stage is intervals:
            ctx.allocations, ctx.interval_schedules = [], []
        stage.run(ctx)

    run(assign)
    akey = delta.assignment_key(ctx.frame.pools, ctx.seed)
    audit(rows, tmp, "assign-paths", [akey], lambda: run(assign),
          lambda: delta.store_assignment(akey, ctx.assignment), lambda c: run(assign, c))
    for stage in (gate, subsets, intervals):
        run(stage)
    solved = list(zip(ctx.allocations, ctx.interval_schedules))
    skeys = [delta.subset_key(ctx.bounds, ctx.assignment, subset, i)
             for i, subset in enumerate(ctx.subsets)]
    audit(rows, tmp, "allocate+schedule", skeys, lambda: run(intervals),
          lambda: [delta.store_subset(k, *pair) for k, pair in zip(skeys, solved)],
          lambda c: run(intervals, c))
    audit(rows, tmp, "(deleted) build-schedule", ["0" * 64], lambda: run(build),
          lambda: cache.put("0" * 64, {  # Omega a second time
              "format": CACHE_VERSION, "kind": "artifact", "stage": build.name,
              "payload": {"schedule": schedule_to_dict(ctx.schedule)}}, build.name),
          lambda c: c.get("0" * 64, ("artifact",), lambda entry: schedule_from_dict(
              entry["payload"]["schedule"]), build.name))
    lsd = pipeline.LsdAssignmentStage()
    audit(rows, tmp, "(deleted) LSD assignment", ["1" * 64], lambda: run(lsd),
          lambda: delta.store_assignment("1" * 64, ctx.assignment),
          lambda c: utilization_report(ctx.bounds, DeltaState(
              c, *problem, CONFIG).fetch_assignment("1" * 64, problem[1], ctx.endpoints)))


def main() -> None:
    rows: dict[str, list[tuple]] = {}  # layer -> (4 medians, bytes) per point
    for name, load in itertools.product(inputs.ALL_TOPOLOGIES, inputs.CACHE_LOADS):
        with tempfile.TemporaryDirectory() as tmp:
            audit_point(rows, tmp, name, load)
    heads = ("compute ms", "store ms", "replay(disk) ms", "replay(mem) ms", "bytes")
    print(f"{'layer':26}" + "".join(f"{head:>17}" for head in heads))
    files, puts, put_ms = zip(*rows.pop("cold"))
    for layer, points in rows.items():
        *walls, sizes = zip(*points)
        cells = [f"{min(c):.2f}-{max(c):.2f}" for c in walls] + [f"{min(sizes)}-{max(sizes)}"]
        lost = sum(max(disk, mem) >= compute for compute, _, disk, mem, _ in points)
        print(f"{layer:26}" + "".join(f"{cell:>17}" for cell in cells) + (
            f"  <-- replay >= compute at {lost} of {len(points)} points" * bool(lost)))
    print(f"cached cold compile: {min(files)}-{max(files)} files created (its entry + the "
          f"pack, once per directory), {min(puts)}-{max(puts)} puts, "
          f"{min(put_ms):.2f}-{max(put_ms):.2f} ms in put")


if __name__ == "__main__":
    main()
