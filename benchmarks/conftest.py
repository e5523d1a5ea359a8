"""Shared settings of the legacy ``bench_*.py`` scripts.

The paper's evaluation is not here: each DESIGN.md section 4 experiment
is a ``paper.*`` row of ``tools/pins.py`` that
``tests/integration/test_paper_shapes.py`` checks, and ``repro-sr
utilization`` / ``repro-sr pipeline`` print its tables.
"""

from __future__ import annotations

import pytest

from repro.core.compiler import CompilerConfig
from repro.metrics import load_sweep
from repro.tfg import dvb_tfg

#: The paper sweeps twelve input periods between tau_c and 5 tau_c.
LOADS = load_sweep(12)

COMPILER = CompilerConfig(seed=0, max_paths=48, max_restarts=4, retries=2)


@pytest.fixture(scope="session")
def dvb():
    """The benchmark workload: DVB with 5 object models (DESIGN.md section 3)."""
    return dvb_tfg(5)
