"""Every LP backend must yield the same compiler-level behaviour.

Backends may return different (equally optimal) vertices and different
dual vectors, so equivalence is asserted where it matters: every backend
produces a schedule that passes full machine verification, and every
backend reaches the same feasibility verdict on every matrix point.
Cached replays must be indistinguishable from fresh compiles regardless
of backend.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cache import ScheduleCache
from repro.core.compiler import CompilerConfig, compile_schedule
from repro.core.verify import verify_schedule
from repro.errors import SchedulingError
from repro.experiments import run_feasibility_matrix, standard_setup
from repro.solvers import available_backends, have_scipy
from repro.tfg import dvb_tfg
from repro.tfg.synth import chain_tfg, fan_tfg
from repro.topology import binary_hypercube

scipy_required = pytest.mark.skipif(
    not have_scipy(), reason="scipy not installed"
)

CONFIG = CompilerConfig(seed=0, max_paths=16, max_restarts=2, retries=1)


def small_cases(cube3):
    """Fixtures every backend (including the pure-Python one) can afford."""
    return [
        standard_setup(chain_tfg(4, ops=400.0, size_bytes=1280.0),
                       cube3, bandwidth=128.0),
        standard_setup(fan_tfg(3, ops=400.0, size_bytes=640.0),
                       cube3, bandwidth=128.0),
    ]


class TestEveryBackendCompiles:
    @pytest.mark.parametrize("backend", ["reference", "highs"])
    def test_backend_schedule_passes_verification(self, cube3, backend):
        if backend != "reference" and not have_scipy():
            pytest.skip("scipy not installed")
        config = dataclasses.replace(CONFIG, lp_backend=backend)
        for setup in small_cases(cube3):
            routing = compile_schedule(
                setup.timing, setup.topology, setup.allocation,
                setup.tau_in_for_load(0.4), config,
            )
            assert routing.extra["solver_stats"]["backend"] == backend
            assert routing.extra["solver_stats"]["lp_solves"] > 0
            verify_schedule(routing, setup.timing, setup.topology,
                            setup.allocation)

    def test_backends_agree_on_utilization_and_feasibility(self, cube3):
        peaks = {}
        for backend in available_backends():
            config = dataclasses.replace(CONFIG, lp_backend=backend)
            setup = small_cases(cube3)[0]
            routing = compile_schedule(
                setup.timing, setup.topology, setup.allocation,
                setup.tau_in_for_load(0.4), config,
            )
            peaks[backend] = routing.utilization.peak
        values = list(peaks.values())
        assert all(v == pytest.approx(values[0], rel=1e-9) for v in values)


class TestMatrixVerdictsIdentical:
    def verdicts(self, cube3, backend, loads):
        config = dataclasses.replace(CONFIG, lp_backend=backend)
        result = run_feasibility_matrix(
            chain_tfg(4, ops=400.0, size_bytes=1280.0),
            [cube3], [64.0], loads, config=config,
        )
        return result.rows[0].verdicts

    def test_reference_matches_default_backend(self, cube3):
        loads = [0.2, 0.35, 0.5, 0.7]
        reference = self.verdicts(cube3, "reference", loads)
        default = self.verdicts(cube3, "auto", loads)
        assert reference == default
        # The sweep must cross the feasibility edge to be meaningful.
        assert "OK" in reference and any(v != "OK" for v in reference)

    @scipy_required
    def test_highs_variants_match(self, cube3):
        # One variant is left: the name and the alias resolving to it.
        loads = [0.2, 0.35, 0.5, 0.7]
        assert self.verdicts(cube3, "highs", loads) == self.verdicts(
            cube3, "auto", loads
        )


class TestCachedEqualsFresh:
    @scipy_required
    def test_dvb_on_6cube_cached_replay(self, dvb_setup_128):
        cache = ScheduleCache()
        args = (
            dvb_setup_128.timing, dvb_setup_128.topology,
            dvb_setup_128.allocation,
            dvb_setup_128.tau_in_for_load(0.5), CONFIG,
        )
        fresh = compile_schedule(*args, cache=cache)
        warm = compile_schedule(*args, cache=cache)
        assert cache.stats.as_dict()["hits"] == 1
        assert warm.schedule == fresh.schedule
        assert warm.utilization.peak == pytest.approx(
            fresh.utilization.peak
        )
        verify_schedule(warm, dvb_setup_128.timing, dvb_setup_128.topology,
                        dvb_setup_128.allocation)

    def test_cached_replay_per_backend(self, cube3):
        for backend in available_backends():
            config = dataclasses.replace(CONFIG, lp_backend=backend)
            setup = small_cases(cube3)[1]
            cache = ScheduleCache()
            args = (
                setup.timing, setup.topology, setup.allocation,
                setup.tau_in_for_load(0.4), config,
            )
            fresh = compile_schedule(*args, cache=cache)
            warm = compile_schedule(*args, cache=cache)
            assert warm.schedule == fresh.schedule, backend
