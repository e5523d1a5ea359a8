#!/usr/bin/env python3
"""``python tools/wr_corpus.py OUT.json``: the wormhole differential corpus.

Runs every wormhole simulator variant — base, ``virtual_channels=2``,
adaptive, store-and-forward — over the eleven ``pipeline_sim`` points
(DVB(5), B = 128, 24 invocations) and the 48 ``FuzzPoint`` seeds (12
invocations), plus a seeded ``generate_fault_trace`` leg on the 6-cube and
the 8x8 torus (deterministic and adaptive routing, two and four transient or
permanent outages), and writes per run what the simulator returned:
completion times as ``float.hex``, ``recoveries``, ``link_waits`` (insertion
order), ``fault_events``/``fault_aborts``, or the error type and text.  The
pipeline and fault cases run a second time under a recorder of every trace
category but ``sim`` and add the digest of the events, in order and as a
multiset.

``tests/data/wr_corpus.json`` is this script's output at the commit before
the wormhole simulator became one flat callback loop;
``tests/integration/test_wr_corpus.py`` replays the same cases and asserts
every field equal.  Rewriting the fixture therefore records a *model*
change, never a refactoring.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.check.fuzz import FuzzPoint  # noqa: E402
from repro.experiments.setup import standard_setup  # noqa: E402
from repro.faults.models import generate_fault_trace  # noqa: E402
from repro.results import RunConfig  # noqa: E402
from repro.tfg import dvb_tfg  # noqa: E402
from repro.topology import make_topology  # noqa: E402
from repro.topology.routing import links_on_path, lsd_to_msd_route  # noqa: E402
from repro.trace.tracer import (  # noqa: E402
    NULL_TRACER,
    TRACE_CATEGORIES,
    TraceRecorder,
)
from repro.wormhole import (  # noqa: E402
    AdaptiveWormholeSimulator,
    StoreAndForwardSimulator,
    WormholeSimulator,
)

#: The pipeline_sim points (benchmarks/e2e/inputs.py SIM_POINTS).
PIPELINE_POINTS = tuple(
    (name, load)
    for name in ("hypercube6", "ghc444", "torus4x4x4")
    for load in (0.3, 0.6, 0.9)
) + (("torus8x8", 0.2), ("torus8x8", 0.7714285714))
FUZZ_SEEDS = range(48)
VARIANTS = ("base", "vc2", "adaptive", "saf")
FAULT_TOPOLOGIES = (("hypercube6", 0.3), ("torus8x8", 0.2))
FAULT_SEEDS = range(5)
FAULT_COUNTS = (2, 4)
FAULT_TRANSIENT = (0.0, 1.0)


def _simulator(variant: str, timing, topology, allocation):
    if variant == "vc2":
        return WormholeSimulator(timing, topology, allocation,
                                 virtual_channels=2)
    cls = {
        "base": WormholeSimulator,
        "adaptive": AdaptiveWormholeSimulator,
        "saf": StoreAndForwardSimulator,
    }[variant]
    return cls(timing, topology, allocation)


def _dvb(name: str, load: float):
    setup = standard_setup(dvb_tfg(5), make_topology(name), 128.0)
    return (setup.timing, setup.topology, setup.allocation,
            setup.tau_in_for_load(load))


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _trace_digests(run) -> dict:
    """Digests of the non-``sim`` events a traced run emits."""
    tracer = TraceRecorder(set(TRACE_CATEGORIES) - {"sim"})
    try:
        run(tracer)
    except Exception:  # noqa: BLE001 - the events up to the error count
        pass
    lines = [
        repr((e.category, e.name, e.time.hex(), e.duration.hex(), e.track,
              sorted((k, repr(v)) for k, v in e.args.items())))
        for e in tracer.events
    ]
    return {"trace_events": len(lines), "trace_sequence": _digest(lines),
            "trace_multiset": _digest(sorted(lines))}


def _record(run, traced: bool) -> dict:
    """What one simulator run returned, exactly."""
    record = _trace_digests(run) if traced else {}
    try:
        result = run(NULL_TRACER)
    except Exception as error:  # noqa: BLE001 - the error is the record
        return {**record, "error": [type(error).__name__, str(error)]}
    extra = result.extra
    record |= {
        "completion_times": [t.hex() for t in result.completion_times],
        "extra_keys": sorted(extra),
        "recoveries": extra["recoveries"],
        "link_waits": [[str(link), wait.hex()]
                       for link, wait in extra["link_waits"].items()],
    }
    if "fault_events" in extra:
        record["fault_events"] = [
            [time.hex(), kind, str(link)]
            for time, (kind, link) in extra["fault_events"]
        ]
        record["fault_aborts"] = extra["fault_aborts"]
    return record


def cases():
    """``(case id, traced?, run(tracer))`` for every corpus entry."""
    for name, load in PIPELINE_POINTS:
        timing, topology, allocation, tau_in = _dvb(name, load)
        for variant in VARIANTS:
            sim = _simulator(variant, timing, topology, allocation)
            yield (f"pipeline/{name}@{load}/{variant}", True,
                   lambda tracer, sim=sim, tau_in=tau_in: sim.run(
                       tau_in, config=RunConfig(invocations=24, warmup=6,
                                                tracer=tracer)))
    for seed in FUZZ_SEEDS:
        timing, topology, allocation, tau_in = FuzzPoint.from_seed(seed).build()
        for variant in VARIANTS:
            sim = _simulator(variant, timing, topology, allocation)
            yield (f"fuzz/{seed}/{variant}", False,
                   lambda tracer, sim=sim, tau_in=tau_in:
                   sim.run(tau_in, invocations=12, warmup=4))
    for name, load in FAULT_TOPOLOGIES:
        timing, topology, allocation, tau_in = _dvb(name, load)
        used = sorted({
            link
            for m in timing.tfg.messages
            if allocation[m.src] != allocation[m.dst]
            for link in links_on_path(lsd_to_msd_route(
                topology, allocation[m.src], allocation[m.dst]))
        })
        for seed, count, transient in itertools.product(
                FAULT_SEEDS, FAULT_COUNTS, FAULT_TRANSIENT):
            trace = generate_fault_trace(
                topology, seed=seed, n_link_faults=count,
                horizon=6 * tau_in, transient_fraction=transient,
                candidate_links=tuple(used),
            )
            for variant in ("base", "adaptive"):
                sim = _simulator(variant, timing, topology, allocation)
                yield (f"faults/{name}@{load}/seed{seed}/x{count}/"
                       f"transient{transient}/{variant}", True,
                       lambda tracer, sim=sim, tau_in=tau_in, trace=trace:
                       sim.run(tau_in, config=RunConfig(
                           invocations=12, warmup=4, fault_trace=trace,
                           tracer=tracer)))


def corpus() -> dict:
    return {case: _record(run, traced) for case, traced, run in cases()}


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tools/wr_corpus.py OUT.json")
    Path(sys.argv[1]).write_text(json.dumps(corpus(), indent=1) + "\n")
