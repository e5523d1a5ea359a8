"""Micro-benchmarks of the library's hot paths.

Unlike the figure benches (one pedantic round around a whole sweep),
these use pytest-benchmark's normal statistics and measure the components
a user pays for repeatedly: the DES kernel, path enumeration, the
AssignPaths inner loop, the LP stages, and a full compile.
"""

from repro.core.compiler import CompilerConfig, compile_schedule
from repro.core.timebounds import compute_time_bounds
from repro.experiments import standard_setup
from repro.sim import Environment, Resource
from repro.tfg import TFGTiming
from repro.tfg.synth import chain_tfg
from repro.topology import binary_hypercube, enumerate_minimal_paths
from repro.wormhole import WormholeSimulator


def test_des_kernel_event_throughput(benchmark):
    """Ping-pong of 10k timeout events through the kernel."""

    def run():
        env = Environment()

        def ticker(env):
            for _ in range(10_000):
                yield env.timeout(1.0)

        env.process(ticker(env))
        env.run()
        return env.now

    assert benchmark(run) == 10_000.0


def test_des_resource_contention(benchmark):
    """1000 claims contending FCFS for one resource."""

    def run():
        env = Environment()
        resource = Resource(env, capacity=1)

        def granted(claim):
            env.call_later(0.5, resource.release, claim)

        for _ in range(1000):
            resource.claim(on_grant=granted)
        env.run()
        return env.now

    assert benchmark(run) == 500.0


def test_minimal_path_enumeration_6cube(benchmark):
    """All 720 minimal paths between antipodal 6-cube nodes."""
    topo = binary_hypercube(6)
    paths = benchmark(enumerate_minimal_paths, topo, 0, 63)
    assert len(paths) == 720


def test_time_bounds_dvb(benchmark, dvb):
    setup = standard_setup(dvb, binary_hypercube(6), 128.0)
    bounds = benchmark(
        compute_time_bounds, setup.timing, setup.tau_in_for_load(0.6)
    )
    assert bounds.intervals.count >= 1


def test_full_compile_dvb_6cube(benchmark, dvb):
    """A complete scheduled-routing compile at one load point."""
    setup = standard_setup(dvb, binary_hypercube(6), 128.0)
    config = CompilerConfig(max_paths=24, max_restarts=1, retries=0)

    def compile_once():
        return compile_schedule(
            setup.timing, setup.topology, setup.allocation,
            setup.tau_in_for_load(0.6), config,
        )

    routing = benchmark(compile_once)
    assert routing.utilization.feasible


def test_wormhole_run_chain(benchmark):
    """A 16-invocation wormhole simulation of an 8-stage chain."""
    topo = binary_hypercube(3)
    timing = TFGTiming(chain_tfg(8, 400, 1280), 128.0, speeds=40.0)
    allocation = {f"t{i}": i for i in range(8)}
    simulator = WormholeSimulator(timing, topo, allocation)

    def run():
        return simulator.run(tau_in=40.0, invocations=16, warmup=4)

    result = benchmark(run)
    assert len(result.completion_times) == 16
