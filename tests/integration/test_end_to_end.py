"""End-to-end integration: the full paper pipeline on real configurations."""

import pytest

from repro.core.compiler import CompilerConfig, compile_schedule
from repro.core.executor import ScheduledRoutingExecutor
from repro.errors import SchedulingError
from repro.experiments import standard_setup
from repro.tfg import dvb_tfg
from repro.topology import GeneralizedHypercube, Torus
from repro.wormhole import WormholeSimulator


class TestDvbOnPaperTopologies:
    """Compile + machine-verify SR on each paper topology where the
    reproduction found it feasible, and compare against WR."""

    @pytest.mark.parametrize(
        "topology,bandwidth,load",
        [
            (GeneralizedHypercube((2,) * 6), 128.0, 0.6),
            (GeneralizedHypercube((4, 4, 4)), 64.0, 0.6),
            (GeneralizedHypercube((4, 4, 4)), 128.0, 1.0),
            (Torus((4, 4, 4)), 128.0, 0.6),
        ],
        ids=["6cube-B128", "ghc444-B64", "ghc444-B128-max", "torus444-B128"],
    )
    def test_sr_constant_throughput(self, topology, bandwidth, load):
        setup = standard_setup(dvb_tfg(5), topology, bandwidth)
        tau_in = setup.tau_in_for_load(load)
        routing = compile_schedule(
            setup.timing, setup.topology, setup.allocation, tau_in,
            CompilerConfig(max_paths=32, max_restarts=2),
        )
        executor = ScheduledRoutingExecutor(
            routing, setup.timing, setup.topology, setup.allocation
        )
        result = executor.run(invocations=24, warmup=4)
        assert not result.has_oi()
        assert result.throughput_stats().mean == pytest.approx(1.0)
        # The replay ran Ω: every command sits on a circuit.
        assert executor.commands_placed == routing.schedule.num_commands

    def test_torus_b64_infeasible_as_in_paper(self):
        """Fig. 6: at B=64 the tori never reach utilisation <= 1."""
        setup = standard_setup(dvb_tfg(5), Torus((8, 8)), 64.0)
        for load in (0.2, 0.6, 1.0):
            with pytest.raises(SchedulingError):
                compile_schedule(
                    setup.timing, setup.topology, setup.allocation,
                    setup.tau_in_for_load(load),
                    CompilerConfig(max_paths=24, max_restarts=1),
                )

    def test_wr_oi_where_sr_is_clean(self):
        """Fig. 7 (B=128): at a middle load, WR shows OI while SR holds
        throughput exactly at the input rate."""
        setup = standard_setup(dvb_tfg(5), GeneralizedHypercube((2,) * 6),
                               128.0)
        tau_in = setup.tau_in_for_load(0.52)
        wr = WormholeSimulator(setup.timing, setup.topology, setup.allocation)
        wr_result = wr.run(tau_in, invocations=40, warmup=8)
        assert wr_result.has_oi()

        routing = compile_schedule(
            setup.timing, setup.topology, setup.allocation, tau_in
        )
        sr_result = ScheduledRoutingExecutor(
            routing, setup.timing, setup.topology, setup.allocation
        ).run(invocations=40, warmup=8)
        assert not sr_result.has_oi()
        assert sr_result.throughput_stats().spread == pytest.approx(0.0, abs=1e-9)


class TestScheduleInternals:
    def test_schedule_consistency_invariants(self, dvb_setup_128):
        setup = dvb_setup_128
        routing = compile_schedule(
            setup.timing, setup.topology, setup.allocation,
            setup.tau_in_for_load(0.8),
        )
        schedule = routing.schedule
        # Omega validation is idempotent and passes on the built object.
        schedule.validate()
        # Every slot's path matches the recorded assignment.
        for name, slots in schedule.slots.items():
            for slot in slots:
                assert slot.path == schedule.assignment[name]
        # Node schedules mention exactly the nodes on some path.
        nodes_in_paths = {
            node for path in schedule.assignment.values() for node in path
        }
        assert set(schedule.node_schedules) <= nodes_in_paths

    def test_subsets_and_allocations_cover_schedule(self, dvb_setup_128):
        setup = dvb_setup_128
        routing = compile_schedule(
            setup.timing, setup.topology, setup.allocation,
            setup.tau_in_for_load(0.5),
        )
        subset_members = [n for s in routing.subsets for n in s]
        assert sorted(subset_members) == sorted(routing.schedule.slots)
        for allocation, subset in zip(routing.allocations, routing.subsets):
            assert allocation.subset == subset

    def test_compiler_retry_feedback(self, dvb_setup_64):
        """The retry loop (feedback extension) reports attempts > 1 when a
        first seed fails but a later one succeeds — or raises the last
        stage error after exhausting retries."""
        setup = dvb_setup_64
        tau_in = setup.tau_in_for_load(0.2)
        try:
            routing = compile_schedule(
                setup.timing, setup.topology, setup.allocation, tau_in,
                CompilerConfig(seed=0, retries=3),
            )
        except SchedulingError as error:
            assert error.stage in {
                "utilization", "interval-allocation", "interval-scheduling",
            }
        else:
            assert 1 <= routing.attempts <= 4
