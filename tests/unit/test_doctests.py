"""Execute the library's docstring examples.

Doctests keep the documentation honest: every ``>>>`` example in a public
module must actually run and produce what it claims.
"""

import doctest
import importlib

import pytest

MODULE_NAMES = [
    "repro",
    "repro.metrics.series",
    "repro.report.tables",
    "repro.sim",
    "repro.tfg.analysis",
    "repro.tfg.dvb",
    "repro.tfg.graph",
    "repro.tfg.radar",
    "repro.tfg.synth",
    "repro.topology.ghc",
    "repro.topology.hypercube",
    "repro.topology.mesh",
    "repro.topology.torus",
]


@pytest.mark.parametrize("name", MODULE_NAMES)
def test_module_doctests(name):
    # importlib rather than attribute access: package __init__ re-exports
    # (e.g. ``repro.core.assign_paths`` the function) shadow submodule
    # attributes of the same name.
    module = importlib.import_module(name)
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, (
        f"{results.failed} doctest failure(s) in {module.__name__}"
    )
    # Modules in this list are expected to carry at least one example.
    assert results.attempted > 0, f"{module.__name__} has no doctests"
