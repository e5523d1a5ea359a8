"""End-to-end acceptance: the analyzer is clean on every feasible point.

The ISSUE acceptance criterion for the conformance analyzer is that it
reports *zero findings* on every schedule the compiler marks feasible —
across topologies, workload shapes, bandwidths and loads — while the
mutation suite (tests/unit/test_check_mutations.py) proves it is not
merely silent.  These tests run the feasibility matrix with
``analyze=True`` and assert no point is downgraded to ``CHK``.
"""

from __future__ import annotations

import pytest

from repro.check import analyze_schedule
from repro.core.compiler import CompilerConfig, compile_schedule
from repro.experiments import run_feasibility_matrix, standard_setup
from repro.tfg.synth import chain_tfg, fan_tfg

CONFIG = CompilerConfig(seed=0, max_paths=16, max_restarts=2, retries=1)


class TestMatrixConformance:
    @pytest.mark.parametrize("make_tfg", [chain_tfg, fan_tfg],
                             ids=["chain", "fan"])
    def test_every_feasible_point_is_analyzer_clean(
        self, cube3, torus44, make_tfg
    ):
        tfg = make_tfg(4, 400, 1280)
        result = run_feasibility_matrix(
            tfg, [cube3, torus44], [64.0, 128.0], [0.5, 0.75, 1.0],
            config=CONFIG, analyze=True,
        )
        verdicts = [v for row in result.rows for v in row.verdicts]
        assert "CHK" not in verdicts, (
            "analyzer flagged a compiler-produced schedule"
        )
        assert "OK" in verdicts  # the assertion above is not vacuous

    def test_dvb_schedule_is_analyzer_clean(self, dvb_setup_128):
        setup = dvb_setup_128
        routing = compile_schedule(
            setup.timing, setup.topology, setup.allocation,
            setup.tau_in_for_load(0.75), CONFIG,
        )
        report = analyze_schedule(
            routing.schedule, setup.topology,
            timing=setup.timing, allocation=setup.allocation,
        )
        assert report.ok, report.summary()
        assert set(report.checks) == {
            "frame", "path", "link", "omega", "window",
        }

    def test_diamond_on_torus_is_analyzer_clean(self, torus44):
        from repro.tfg.graph import build_tfg

        tfg = build_tfg(
            "diamond",
            [("s", 400), ("m1", 400), ("m2", 400), ("t", 400)],
            [
                ("a", "s", "m1", 640),
                ("b", "s", "m2", 1280),
                ("c", "m1", "t", 640),
                ("d", "m2", "t", 1280),
            ],
        )
        setup = standard_setup(tfg, torus44, bandwidth=128.0)
        routing = compile_schedule(
            setup.timing, setup.topology, setup.allocation,
            setup.tau_in_for_load(1.0), CONFIG,
        )
        report = analyze_schedule(
            routing.schedule, setup.topology,
            timing=setup.timing, allocation=setup.allocation,
        )
        assert report.ok, report.summary()
