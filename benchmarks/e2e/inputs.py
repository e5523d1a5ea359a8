"""Seeded inputs of the six workloads.

:func:`op_list` is pure (no ``repro`` import): the same seed yields a
byte-identical JSON-able op list, which ``test_harness.py`` pins.  The
builders below it turn op specs into live problem instances and import
``repro`` lazily, so only the measuring child process pays for it.

The grids are sized so that one round of each round-workload takes
about 1-3 s on 2 cores: a run measures ``RUN_SECONDS`` and must hold
several whole rounds.
"""

from __future__ import annotations

import random
from typing import Any

#: ``benchmarks/conftest.py``'s COMPILER, copied (that file is outside
#: this benchmark's paths and imports pytest).
COMPILER_FIELDS = {"seed": 0, "max_paths": 48, "max_restarts": 4, "retries": 2}

#: Eight-point load sweep (``repro.metrics.load_sweep(8)``) the grids draw from.
SWEEP8 = (0.2, 0.3142857143, 0.4285714286, 0.5428571429,
          0.6571428571, 0.7714285714, 0.8857142857, 1.0)

ALL_TOPOLOGIES = ("hypercube6", "ghc444", "torus8x8", "torus4x4x4")
#: Topologies on which DVB(5) at B=128 compiles at every load.
FEASIBLE_TOPOLOGIES = ("hypercube6", "ghc444", "torus4x4x4")

#: matrix_cold — three sweep points give the real verdict mix
#: (OK / U>1 / ALO) including the retry-heavy 8x8-torus points.
MATRIX_LOADS = (SWEEP8[1], SWEEP8[4], SWEEP8[6])
MATRIX_BANDWIDTHS = (64.0, 128.0)
MATRIX_DVB12 = (("hypercube6", 0.4666666667), ("ghc444", 0.7333333333))
#: Seeded random layered TFGs ``seed .. seed+5`` on the 6-cube: the recipe
#: of ``bench_random_workloads.py`` with 3 layers in place of 4, so that
#: they cost 40-70 ms and stay clear of the grid points that set
#: ``op_p90_ms`` (with 4 layers they cost 70-200 ms and p90 followed the
#: seed by +-20 %).  Neighbouring seeds share five of the six.
MATRIX_RANDOM_INSTANCES = 6
MATRIX_RANDOM_LAYERS, MATRIX_RANDOM_WIDTH = 3, 4

#: cache_replay — base grid the set-up cold-compiles into the directory.
CACHE_LOADS = (SWEEP8[0], SWEEP8[2], SWEEP8[5])
CACHE_CLASSES = ("hit_disk", "hit_mem", "delta_linkdrop", "delta_sizescale")

#: pipeline_sim — half the figure benches' 48/12 invocations, so a window
#: holds several rounds; the 8x8 torus points are the wormhole
#: deadlock-recovery path (their cost grows faster than the invocations).
SIM_INVOCATIONS, SIM_WARMUP = 24, 6
SIM_POINTS = tuple(
    (name, load)
    for name in FEASIBLE_TOPOLOGIES
    for load in (0.3, 0.6, 0.9)
) + (("torus8x8", SWEEP8[0]), ("torus8x8", SWEEP8[5]))

#: serve_* — daemon defaults the benchmark relies on.
SERVE_HISTORY_LIMIT = 4096
SERVE_CONNECTIONS = 2
SERVE_HOT_LOADS = (0.3, 0.5, 0.7, 0.9)
SERVE_HOT_REFUTED_LOADS = (0.7, 0.8, 0.9, 1.0)
#: One round of serve_hot; the window repeats it (about 0.7 s a round).
SERVE_HOT_ROUND_OPS = 500
SERVE_HOT_FILL = SERVE_HISTORY_LIMIT + 200
#: serve_cold: a round visits each (topology, base load) stratum once,
#: at a load the daemon has not seen (base + a fresh jitter <= 0.01).
SERVE_COLD_BASE_LOADS = (0.3, 0.5, 0.7, 0.9)
SERVE_COLD_ROUND_OPS = len(FEASIBLE_TOPOLOGIES) * len(SERVE_COLD_BASE_LOADS)
SERVE_COLD_ROUNDS = 40

#: cli_oneshot — loads where DVB(8) at B=128 compiles on all three.
CLI_LOAD_RANGE = (0.36, 0.44)


def _request(topology: str, bandwidth: float, load: float) -> dict[str, Any]:
    return {"kind": "compile", "topology": topology, "bandwidth": bandwidth,
            "models": 5, "load": load}


def serve_hot_tables() -> dict[str, list[dict[str, Any]]]:
    """Request payloads of serve_hot, by class (seed-independent)."""
    return {
        "duplicate": [
            _request(name, 128.0, load)
            for name in FEASIBLE_TOPOLOGIES
            for load in SERVE_HOT_LOADS
        ],
        "refuted": [
            _request("torus8x8", 64.0, load)
            for load in SERVE_HOT_REFUTED_LOADS
        ],
        "malformed": [
            {"kind": "compile", "topology": "moebius9", "bandwidth": 128.0,
             "models": 5, "load": 0.5},
            _request("hypercube6", 128.0, 1.5),
            {"kind": "compile", "topology": "ghc444", "bandwidth": 128.0,
             "models": 5},
        ],
    }


def op_list(workload: str, seed: int) -> list[dict[str, Any]]:
    """The fixed, seeded op list of a workload (JSON-able)."""
    rng = random.Random(f"{workload}:{seed}")
    ops: list[dict[str, Any]] = []
    if workload == "matrix_cold":
        for name in ALL_TOPOLOGIES:
            for bandwidth in MATRIX_BANDWIDTHS:
                for load in MATRIX_LOADS:
                    ops.append({"kind": "dvb", "models": 5, "topology": name,
                                "bandwidth": bandwidth, "load": load})
        for name, load in MATRIX_DVB12:
            ops.append({"kind": "dvb", "models": 12, "topology": name,
                        "bandwidth": 128.0, "load": load})
        for offset in range(MATRIX_RANDOM_INSTANCES):
            ops.append({"kind": "random", "tfg_seed": seed + offset})
        rng.shuffle(ops)
    elif workload == "cache_replay":
        points = [(name, load) for name in ALL_TOPOLOGIES
                  for load in CACHE_LOADS]
        rng.shuffle(points)
        # Per point the classes run in this order: the memory hit needs
        # the cache object its disk hit just warmed.
        for name, load in points:
            for cls in CACHE_CLASSES:
                ops.append({"class": cls, "topology": name, "load": load})
    elif workload == "pipeline_sim":
        ops = [{"topology": name, "load": load} for name, load in SIM_POINTS]
        rng.shuffle(ops)
    elif workload == "serve_hot":
        tables = serve_hot_tables()
        classes = rng.choices(
            ("duplicate", "refuted", "malformed"),
            weights=(88, 10, 2),
            k=SERVE_HOT_ROUND_OPS,
        )
        ops = [
            {"class": cls, "index": rng.randrange(len(tables[cls]))}
            for cls in classes
        ]
    elif workload == "serve_cold":
        strata = [(name, base) for base in SERVE_COLD_BASE_LOADS
                  for name in FEASIBLE_TOPOLOGIES]
        # Round-major, the strata in one order on every seed (which two
        # requests share the one worker shapes both round trips): op k of
        # every round is the same stratum.  The seed draws the jitter,
        # without replacement, so no instance repeats.
        jitter = {
            stratum: rng.sample(range(-100, 101), SERVE_COLD_ROUNDS)
            for stratum in strata
        }
        for visit in range(SERVE_COLD_ROUNDS):
            for name, base in strata:
                load = round(base + jitter[(name, base)][visit] / 10000.0, 4)
                ops.append({"class": "cold",
                            "payload": _request(name, 128.0, load)})
    elif workload == "cli_oneshot":
        low, high = CLI_LOAD_RANGE
        ops = [
            {"topology": name, "load": round(rng.uniform(low, high), 4)}
            for name in FEASIBLE_TOPOLOGIES
        ]
        rng.shuffle(ops)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


def op_id(index: int, spec: dict[str, Any]) -> str:
    """Stable, readable identifier of an op inside its workload."""
    if "payload" in spec:
        spec = {"class": spec["class"], **spec["payload"]}
    parts = [str(index)]
    for key in ("class", "kind", "models", "topology", "bandwidth", "load",
                "tfg_seed", "index"):
        if key in spec:
            parts.append(f"{key}={spec[key]}")
    return "/".join(parts)


# -- live instances (import repro lazily) ------------------------------------


def compiler_config():
    from repro.core.compiler import CompilerConfig

    return CompilerConfig(**COMPILER_FIELDS)


class Instances:
    """Builds and memoizes the problem instances op specs name."""

    def __init__(self) -> None:
        self._setups: dict[tuple, Any] = {}
        self._topologies: dict[str, Any] = {}
        self.setup_ms: list[float] = []

    def topology(self, name: str):
        from repro.topology import make_topology

        if name not in self._topologies:
            self._topologies[name] = make_topology(name)
        return self._topologies[name]

    def dvb_setup(self, models: int, topology: str, bandwidth: float):
        """``standard_setup(dvb_tfg(models), topology, bandwidth)``, timed."""
        import time

        from repro.experiments.setup import standard_setup
        from repro.tfg import dvb_tfg

        key = (models, topology, bandwidth)
        if key not in self._setups:
            began = time.perf_counter()
            self._setups[key] = standard_setup(
                dvb_tfg(models), self.topology(topology), bandwidth
            )
            self.setup_ms.append((time.perf_counter() - began) * 1000.0)
        return self._setups[key]

    def dvb(self, models: int, topology: str, bandwidth: float, load: float):
        """``(timing, topology, allocation, tau_in)`` of a DVB point."""
        setup = self.dvb_setup(models, topology, bandwidth)
        return (setup.timing, setup.topology, setup.allocation,
                setup.tau_in_for_load(load))

    def random_layered(self, tfg_seed: int):
        """A random layered TFG on the 6-cube at load 0.8."""
        from repro.tfg import TFGTiming, random_layered_tfg

        topology = self.topology("hypercube6")
        tfg = random_layered_tfg(
            seed=tfg_seed, layers=MATRIX_RANDOM_LAYERS,
            width=MATRIX_RANDOM_WIDTH, edge_probability=0.5,
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
        tau_in = max(timing.tau_c / 0.8, timing.message_window)
        return timing, topology, allocation, tau_in

    def compile_op(self, spec: dict[str, Any]):
        if spec["kind"] == "random":
            return self.random_layered(spec["tfg_seed"])
        return self.dvb(spec["models"], spec["topology"],
                        spec["bandwidth"], spec["load"])

    def link_dropped(self, topology: str, bandwidth: float, max_paths: int):
        """The DVB(5) setup with one link outside every candidate pool
        removed: the instance key changes, no stage artifact's input does."""
        from repro.experiments.setup import standard_setup
        from repro.faults.residual import ResidualTopology
        from repro.topology.routing import links_on_path

        key = ("linkdrop", topology, bandwidth)
        if key not in self._setups:
            setup = self.dvb_setup(5, topology, bandwidth)
            pooled = set()
            for message in setup.timing.tfg.messages:
                src = setup.allocation[message.src]
                dst = setup.allocation[message.dst]
                if src == dst:
                    continue
                for path in setup.topology.minimal_path_pool(
                    src, dst, max_paths
                ):
                    pooled.update(links_on_path(path))
            spare = [link for link in sorted(setup.topology.links)
                     if link not in pooled]
            if not spare:
                raise RuntimeError(
                    f"every link of {topology} is in a candidate pool"
                )
            residual = ResidualTopology(setup.topology, [spare[0]])
            self._setups[key] = standard_setup(
                setup.timing.tfg, residual, bandwidth
            )
        return self._setups[key]

    def size_scaled(self, topology: str, bandwidth: float, factor: float):
        """The DVB(5) setup with the first message's size scaled."""
        from repro.experiments.setup import standard_setup
        from repro.tfg.graph import TaskFlowGraph

        key = ("sizescale", topology, bandwidth)
        if key not in self._setups:
            tfg = self.dvb_setup(5, topology, bandwidth).timing.tfg
            target = tfg.messages[0].name
            scaled = TaskFlowGraph(tfg.name)
            for task in tfg.tasks:
                scaled.add_task(task.name, task.ops)
            for message in tfg.messages:
                size = message.size_bytes * (
                    factor if message.name == target else 1.0
                )
                scaled.add_message(message.name, message.src, message.dst,
                                   size)
            self._setups[key] = standard_setup(
                scaled, self.topology(topology), bandwidth
            )
        return self._setups[key]
