"""Unit tests for the wormhole-routing simulator and run results."""

import re
from pathlib import Path

import pytest

import repro.wormhole as wormhole_package
from repro.errors import SimulationError
from repro.experiments import standard_setup
from repro.tfg import TFGTiming, dvb_tfg
from repro.tfg.graph import build_tfg
from repro.tfg.synth import chain_tfg
from repro.topology import make_topology
from repro.trace import TraceRecorder
from repro.results import RunConfig, RunResult
from repro.wormhole import WormholeSimulator


@pytest.fixture()
def chain_sim(cube3):
    timing = TFGTiming(chain_tfg(4, 400, 1280), 128.0, speeds=40.0)
    allocation = {"t0": 0, "t1": 1, "t2": 3, "t3": 7}
    return WormholeSimulator(timing, cube3, allocation), timing


class TestBasicRuns:
    def test_uncontended_chain_has_no_oi(self, chain_sim):
        simulator, timing = chain_sim
        result = simulator.run(tau_in=40.0, invocations=12, warmup=2)
        assert not result.has_oi()
        assert result.throughput_stats().mean == pytest.approx(1.0)

    def test_latency_matches_hand_computation(self, chain_sim):
        simulator, timing = chain_sim
        result = simulator.run(tau_in=40.0, invocations=12, warmup=2)
        # Chain, no contention: latency = 4 tasks x 10 + 3 messages x 10.
        assert result.latencies[0] == pytest.approx(70.0)
        assert result.critical_path_length == pytest.approx(70.0)

    def test_local_message_is_instantaneous(self, cube3):
        timing = TFGTiming(chain_tfg(2, 400, 1280), 128.0, speeds=40.0)
        simulator = WormholeSimulator(timing, cube3, {"t0": 0, "t1": 0})
        result = simulator.run(tau_in=20.0, invocations=10, warmup=2)
        # Two colocated 10us tasks, zero transfer: latency 20us.
        assert result.latencies[0] == pytest.approx(20.0)

    def test_rejects_period_below_tau_c(self, chain_sim):
        simulator, _ = chain_sim
        with pytest.raises(SimulationError):
            simulator.run(tau_in=5.0, invocations=12, warmup=2)

    def test_rejects_too_few_invocations(self, chain_sim):
        simulator, _ = chain_sim
        with pytest.raises(SimulationError):
            simulator.run(tau_in=40.0, invocations=5, warmup=3)

    def test_virtual_channels_validation(self, cube3, tiny_tfg):
        timing = TFGTiming(tiny_tfg, 128.0, speeds=40.0)
        with pytest.raises(SimulationError):
            WormholeSimulator(timing, cube3, {"t0": 0, "t1": 1, "t2": 3},
                              virtual_channels=0)

    def test_route_cache_validates(self, chain_sim):
        simulator, _ = chain_sim
        path = simulator.route(0, 7)
        assert path == [0, 1, 3, 7]
        assert simulator.route(0, 7) is path  # cached


class TestContention:
    def contention_pair(self, cube3, tau_in):
        """Two chains whose middle messages share link (1, 3)."""
        tfg = build_tfg(
            "pair",
            [("a1", 400), ("b1", 400), ("a2", 400), ("b2", 400)],
            [("m1", "a1", "b1", 1280), ("m2", "a2", "b2", 1280)],
        )
        timing = TFGTiming(tfg, 128.0, speeds=40.0)
        # m1: 1 -> 3 (direct); m2: 1 -> 7 via LSD->MSD = 1,3,7 shares (1,3)?
        # LSD route 1->7: flip bit 1 then bit 2: 1,3,7. Yes.
        allocation = {"a1": 1, "b1": 3, "a2": 1, "b2": 7}
        simulator = WormholeSimulator(timing, cube3, allocation)
        return simulator.run(tau_in=tau_in, invocations=20, warmup=4)

    def test_fcfs_serializes_shared_link(self, cube3):
        result = self.contention_pair(cube3, tau_in=40.0)
        # Both messages released together and share (1,3): one waits 10us.
        # Throughput stays consistent (delay identical every invocation).
        assert not result.has_oi()
        assert result.latencies[0] > 30.0

    def test_virtual_channels_double_transmission_time(self, cube3):
        tfg = build_tfg(
            "single",
            [("a", 400), ("b", 400)],
            [("m", "a", "b", 1280)],
        )
        timing = TFGTiming(tfg, 128.0, speeds=40.0)
        plain = WormholeSimulator(timing, cube3, {"a": 0, "b": 1})
        strict = WormholeSimulator(timing, cube3, {"a": 0, "b": 1},
                                   virtual_channels=2)
        r1 = plain.run(30.0, invocations=10, warmup=2)
        r2 = strict.run(30.0, invocations=10, warmup=2)
        assert r2.latencies[0] - r1.latencies[0] == pytest.approx(10.0)


class TestRunResult:
    def make(self, completions, tau_in=10.0, warmup=1):
        return RunResult(
            tau_in=tau_in,
            completion_times=tuple(completions),
            warmup=warmup,
            critical_path_length=50.0,
        )

    def test_warmup_excluded(self):
        result = self.make([5, 15, 25, 35, 45])
        assert result.measured_completions == (15, 25, 35, 45)
        assert result.intervals == [10.0, 10.0, 10.0]
        assert not result.has_oi()

    def test_oi_flag(self):
        result = self.make([5, 15, 24, 37, 45])
        assert result.has_oi()

    def test_latencies_relative_to_arrivals(self):
        result = self.make([60, 70, 80, 90], tau_in=10.0, warmup=0)
        assert result.latencies == [60.0, 60.0, 60.0, 60.0]

    def test_requires_enough_measured_points(self):
        with pytest.raises(ValueError):
            self.make([1, 2, 3], warmup=1)

    def test_validation_of_warmup(self):
        with pytest.raises(ValueError):
            self.make([1, 2, 3, 4, 5], warmup=-1)


class TestPipelineOrdering:
    def test_instance_ordering_preserved(self, cube3):
        """Invocation j+1 of a task never completes before invocation j
        even under contention-induced reordering pressure."""
        tfg = build_tfg(
            "order",
            [("a", 400), ("b", 400)],
            [("m", "a", "b", 2560)],
        )
        timing = TFGTiming(tfg, 128.0, speeds=40.0,
                           message_window=20.0)
        simulator = WormholeSimulator(timing, cube3, {"a": 0, "b": 7})
        result = simulator.run(tau_in=25.0, invocations=15, warmup=0)
        completions = result.completion_times
        assert all(b > a for a, b in zip(completions, completions[1:]))


def _tie_case(cube3, tasks, messages, allocation):
    tfg = build_tfg("tie", [(name, 400) for name in tasks], messages)
    timing = TFGTiming(tfg, 128.0, speeds=40.0)
    tracer = TraceRecorder(categories=("link",))
    WormholeSimulator(timing, cube3, allocation).run(
        40.0, config=RunConfig(invocations=8, warmup=4, tracer=tracer)
    )
    return [owner for _, _, owner in tracer.occupancy()["(1, 3)"][:4]]


class TestFlatLoop:
    """The run loop is per-stage agenda entries in the order the
    generator resumes they replaced ran (DESIGN.md §6)."""

    @pytest.mark.parametrize("via_hop", [False, True])
    def test_same_instant_tie_grant_order(self, cube3, via_hop):
        """Two flights want link (1, 3) at t = 10.  Directly: b's flight
        boots first (task order) and wins.  Via a hop: a's flight (route
        0-1-3) boots first but asks for (1, 3) only from its first hop's
        grant entry, behind b's boot.  Both orders are the parent's."""
        if via_hop:
            owners = _tie_case(
                cube3, ["a", "b", "c"],
                [("Ma", "a", "c", 1280), ("Mb", "b", "c", 1280)],
                {"a": 0, "b": 1, "c": 3},
            )
        else:
            owners = _tie_case(
                cube3, ["b", "a", "c", "d"],
                [("Mb", "b", "d", 1280), ("Ma", "a", "c", 1280)],
                {"a": 1, "c": 3, "b": 3, "d": 1},
            )
        assert owners == [("Mb", 0), ("Ma", 0), ("Mb", 1), ("Ma", 1)]

    #: (topology, load, agenda steps the generator-per-flight loop took).
    BUDGET_POINTS = [
        ("hypercube6", 0.3, 7442),
        ("ghc444", 0.3, 7034),
        ("torus8x8", 0.7714285714, 13328),
    ]

    @pytest.mark.parametrize("name,load,parent_steps", BUDGET_POINTS)
    def test_kernel_step_budget(self, name, load, parent_steps):
        """Exactly one agenda step per input arrival and its fan-out,
        task stage (ready, AP grant, exec end), met dependency, flight
        boot, link grant, transmission end and recovery back-off — and
        nothing else (no process starts or exits, no condition events)."""
        setup = standard_setup(dvb_tfg(5), make_topology(name), 128.0)
        tracer = TraceRecorder(categories=("sim", "link"))
        result = WormholeSimulator(
            setup.timing, setup.topology, setup.allocation
        ).run(
            setup.tau_in_for_load(load),
            config=RunConfig(invocations=24, warmup=6, tracer=tracer),
        )
        tfg, allocation = setup.timing.tfg, setup.allocation
        runs = 24
        messages = len(tfg.messages)
        routed = sum(
            1 for m in tfg.messages if allocation[m.src] != allocation[m.dst]
        )
        tasks = runs * len(tfg.tasks)
        dependencies = runs * messages + (runs - 1) * len(tfg.tasks)
        # One occupancy record per granted link claim (an abort can free
        # a link in the instant it was granted: a zero-length record).
        grants = sum(
            1 for hold in tracer.select("link", "occupy")
            if not hold.track.startswith("AP")
        )
        recoveries = result.extra["recoveries"]
        steps = len(tracer.instants("sim", name="step"))
        assert steps == (
            2 * runs + 3 * tasks + dependencies + runs * messages
            + grants + runs * routed + recoveries
        )
        if not recoveries:
            assert grants == runs * sum(
                setup.topology.distance(allocation[m.src], allocation[m.dst])
                for m in tfg.messages
            )
        assert steps < parent_steps


def test_no_generator_process_in_the_wormhole_package():
    """No src/ module drives a generator process (the kernel's own driver
    aside), and the wormhole package yields nowhere."""
    package = Path(wormhole_package.__file__).parent
    for source in package.parent.rglob("*.py"):
        if source.relative_to(package.parent).as_posix() != "sim/environment.py":
            text = source.read_text()
            assert "env.process(" not in text, source
            assert "env.timeout(" not in text, source
    for source in package.glob("*.py"):
        assert not re.search(r"\byield\b", source.read_text()), source.name
