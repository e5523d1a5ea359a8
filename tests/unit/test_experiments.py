"""Unit tests for the experiment drivers and standard setup."""

import pytest

from repro.core.compiler import CompilerConfig
from repro.experiments import (
    InstanceSpec,
    pipeline_comparison,
    standard_setup,
    utilization_comparison,
)
from repro.mapping import (
    annealed_allocation,
    bfs_allocation,
    random_allocation,
    sequential_allocation,
)
from repro.tfg import dvb_tfg
from repro.tfg.synth import chain_tfg
from repro.topology import make_topology


class TestStandardSetup:
    def test_paper_calibration_b64(self, dvb5, cube6):
        setup = standard_setup(dvb5, cube6, bandwidth=64.0)
        assert setup.timing.tau_m / setup.timing.tau_c == pytest.approx(1.0)
        assert setup.tau_c == pytest.approx(50.0)

    def test_paper_calibration_b128(self, dvb5, cube6):
        setup = standard_setup(dvb5, cube6, bandwidth=128.0)
        # Same machine, double bandwidth: tau_m/tau_c = 0.5.
        assert setup.timing.tau_m / setup.timing.tau_c == pytest.approx(0.5)
        assert setup.tau_c == pytest.approx(50.0)

    def test_load_to_period(self, dvb_setup_64):
        assert dvb_setup_64.tau_in_for_load(1.0) == pytest.approx(50.0)
        assert dvb_setup_64.tau_in_for_load(0.2) == pytest.approx(250.0)
        with pytest.raises(ValueError):
            dvb_setup_64.tau_in_for_load(0.0)
        with pytest.raises(ValueError):
            dvb_setup_64.tau_in_for_load(1.5)

    def test_custom_allocator(self, dvb5, cube6):
        setup = standard_setup(dvb5, cube6, 64.0, allocator=bfs_allocation)
        assert setup.allocation == bfs_allocation(dvb5, cube6)

    def test_explicit_allocation_overrides(self, cube3):
        tfg = chain_tfg(3, 400, 1280)
        manual = {"t0": 7, "t1": 6, "t2": 5}
        setup = standard_setup(tfg, cube3, 64.0, allocation=manual)
        assert setup.allocation == manual


class TestInstanceSpec:
    """One builder for the CLI and serve: equal to the spelled-out
    ``standard_setup(dvb_tfg(..), make_topology(..), ..)`` both used to
    write themselves."""

    SEED = 3
    SPELLED_OUT = {
        "sequential": sequential_allocation,
        "bfs": bfs_allocation,
        "random": lambda tfg, topo: random_allocation(tfg, topo, 3),
        "annealed": lambda tfg, topo: annealed_allocation(tfg, topo, seed=3),
    }

    @pytest.mark.parametrize("allocator", sorted(SPELLED_OUT))
    def test_build_equals_the_spelled_out_builder(self, allocator):
        built = InstanceSpec("6cube", 128.0, 5, allocator, self.SEED).build()
        spelled = standard_setup(
            dvb_tfg(5),
            make_topology("6cube"),
            128.0,
            allocator=self.SPELLED_OUT[allocator],
        )
        assert built.allocation == spelled.allocation
        assert built.topology.links == spelled.topology.links
        assert built.timing.bandwidth == spelled.timing.bandwidth
        assert built.tau_in_for_load(0.4) == spelled.tau_in_for_load(0.4)

    def test_aliases_resolve_so_equal_instances_compare_equal(self):
        assert InstanceSpec("cube6") == InstanceSpec("hypercube6")
        assert InstanceSpec("cube6").topology == "hypercube6"

    @pytest.mark.parametrize(
        "fields",
        [
            {"topology": "ring"},
            {"bandwidth": 0.0},
            {"bandwidth": float("nan")},
            {"models": 0},
            {"allocator": "oracle"},
        ],
    )
    def test_out_of_range_fields_raise_value_error(self, fields):
        with pytest.raises(ValueError):
            InstanceSpec(**{"topology": "hypercube6", **fields})

    def test_cli_and_job_request_name_the_same_cache_key(self, tmp_path):
        from repro.cache import schedule_cache_key
        from repro.cli import main
        from repro.serve.jobs import JobRequest

        assert main([
            "compile", "--topology", "6cube", "--bandwidth", "128",
            "--models", "5", "--load", "0.5", "--allocator", "random",
            "--seed", "3", "--cache-dir", str(tmp_path),
        ]) == 0
        request = JobRequest.from_payload({
            "topology": "6cube", "bandwidth": 128, "models": 5,
            "load": 0.5, "allocator": "random", "seed": 3,
        })
        setup = request.build()
        key = schedule_cache_key(
            setup.timing, setup.topology, setup.allocation,
            setup.tau_in_for_load(request.load), request.compiler_config(),
        )
        assert (tmp_path / key[:2] / f"{key}.json").is_file()


class TestUtilizationComparison:
    def test_heuristic_never_worse(self, small_setup):
        points = utilization_comparison(small_setup, [0.3, 0.7, 1.0], seed=0)
        assert len(points) == 3
        for point in points:
            assert point.u_heuristic <= point.u_lsd + 1e-9
            assert point.tau_in == pytest.approx(
                small_setup.tau_c / point.load
            )


class TestPipelineComparison:
    def test_small_sweep(self, small_setup):
        points = pipeline_comparison(
            small_setup, [0.5, 1.0], invocations=14, warmup=2,
            compiler_config=CompilerConfig(max_paths=12, max_restarts=1),
        )
        assert len(points) == 2
        for point in points:
            assert not point.wr_deadlock
            assert point.wr_throughput is not None
            if point.sr_feasible:
                assert point.sr_throughput == pytest.approx(1.0)
                assert point.sr_fail_stage is None
                assert point.sr_status == "feasible"
            else:
                assert point.sr_fail_stage is not None
                assert "infeasible" in point.sr_status

    def test_verify_sr_false_uses_analytic_result(self, small_setup):
        points = pipeline_comparison(
            small_setup, [1.0], invocations=14, warmup=2, verify_sr=False,
            compiler_config=CompilerConfig(max_paths=12, max_restarts=1),
        )
        point = points[0]
        if point.sr_feasible:
            expected = (
                small_setup.timing.asap_latency()
                / small_setup.timing.critical_path().length
            )
            assert point.sr_latency == pytest.approx(expected)
