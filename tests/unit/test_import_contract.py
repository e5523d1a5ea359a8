"""The import contract: what a process has loaded after each entry point.

Start-up is most of a one-shot ``repro-sr compile``, so what gets
imported is pinned by module *counts and names*, which repeat exactly,
not by timings.  Every case that looks at ``sys.modules`` runs in a
fresh interpreter with ``PYTHONPATH=src`` and prints a JSON summary on
its last stdout line.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.solvers import have_scipy
from tests.conftest import pins

SRC = Path(__file__).resolve().parents[2] / "src"
CORE = "scipy.optimize._highspy._core"
BLAS = "OPENBLAS_NUM_THREADS"

needs_scipy = pytest.mark.skipif(
    not have_scipy(), reason="the HiGHS engine needs scipy"
)

#: The last statement of every child script; ``extra`` is the script's own.
REPORT = """
import json, sys
print(json.dumps({"modules": sorted(sys.modules), **globals().get("extra", {})}))
"""

#: One tiny LP (min x s.t. x = 1) through the default backend.
SOLVE = """
from repro.solvers import get_backend
from repro.solvers.base import LPProblemBuilder

def tiny_lp():
    builder = LPProblemBuilder(1)
    builder.set_objective([0], [1.0])
    builder.add_eq_rows([1.0], rows=[0], cols=[0], values=[1.0])
    return builder.build()
"""


def run_child(script: str, blas: str | None = None) -> dict:
    """Run ``script`` in a fresh interpreter whose environment has
    ``OPENBLAS_NUM_THREADS=blas``, or no such variable for ``None``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop(BLAS, None)
    if blas is not None:
        env[BLAS] = blas
    done = subprocess.run(
        [sys.executable, "-c", script + REPORT],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def main_child(argv: list[str], prelude: str = "",
               blas: str | None = None) -> dict:
    return run_child(
        prelude
        + "import repro.cli\n"
        "try:\n"
        f"    code = repro.cli.main({argv!r})\n"
        "except SystemExit as stop:\n"
        "    code = stop.code\n"
        "extra = {'code': code, **globals().get('extra', {})}\n",
        blas,
    )


class TestCompileImportsOnlyWhatItRuns:
    @pytest.fixture(scope="class")
    def seen(self):
        backend = [] if have_scipy() else ["--lp-backend", "reference"]
        return main_child([
            "compile", "--topology", "hypercube6", "--bandwidth", "128",
            "--load", "0.4", *backend,
        ])

    def test_compiles(self, seen):
        assert seen["code"] == 0

    @needs_scipy
    def test_scipy_optimize_is_never_imported(self, seen):
        scipy = [m for m in seen["modules"] if m.split(".")[0] == "scipy"]
        assert "scipy.optimize" not in scipy
        assert CORE in scipy
        assert all(m == CORE or m.startswith(CORE + ".") for m in scipy)

    def test_subsystems_a_compile_never_runs_are_absent(self, seen):
        for module in (
            "concurrent.futures.process", "repro.wormhole", "repro.check",
            "repro.diagnose", "repro.serve", "repro.sim",
            "repro.core.executor", "repro.tfg.synth",
            "repro.topology.analysis", "repro.mapping.annealing",
            "repro.report", "repro.metrics",
        ):
            assert module not in seen["modules"], module

    def test_module_counts(self, seen):
        # 92 repro.* modules (882 in all) before the compile path was
        # trimmed, 46 before the last five facades went lazy.
        ours = [m for m in seen["modules"] if m.startswith("repro")]
        assert len(ours) <= 38, ours
        assert len(seen["modules"]) <= 300


@pytest.mark.parametrize("argv", (["--help"], ["submit", "--help"]))
def test_parsing_imports_no_numpy(argv):
    seen = main_child(argv)
    assert seen["code"] == 0
    assert "numpy" not in seen["modules"]
    assert "repro.core" not in seen["modules"]


#: Records the child's ``OPENBLAS_NUM_THREADS`` at the moment numpy is
#: first imported, which is when OpenBLAS sizes its thread pool.
WATCH_NUMPY = f"""
import os, sys

class WatchNumpy:
    seen = []

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not self.seen:
            self.seen.append(os.environ.get({BLAS!r}, "unset"))

sys.meta_path.insert(0, WatchNumpy())
extra = {{"blas": WatchNumpy.seen}}
"""


class TestCliRunsOpenblasOnOneThread:
    """``repro.cli.main`` sets ``OPENBLAS_NUM_THREADS=1`` (unless the
    caller set it) before numpy loads, so no ``repro-sr`` process, nor
    any worker it starts, pays for a BLAS thread pool it never uses."""

    COMPILE = ["compile", "--topology", "hypercube6", "--bandwidth", "128",
               "--models", "5", "--load", "0.4"]

    def test_numpy_loads_with_one_thread(self):
        seen = main_child(self.COMPILE, WATCH_NUMPY)
        assert seen["code"] == 0
        assert seen["blas"] == ["1"]

    def test_a_value_the_caller_set_wins(self):
        seen = main_child(self.COMPILE, WATCH_NUMPY, blas="2")
        assert seen["code"] == 0
        assert seen["blas"] == ["2"]

    def test_imports_leave_the_environment_alone(self):
        """Only running a command sets it: a program that embeds the
        library, or imports the CLI for its parser, keeps its own."""
        seen = run_child("""
import os
before = dict(os.environ)
import repro
from repro import *
import repro.core.compiler
from repro.serve import *
import repro.cli
extra = {"same": dict(os.environ) == before}
""")
        assert seen["same"] is True
        assert "numpy" in seen["modules"]

    def test_pool_workers_inherit_the_setting(self):
        seen = run_child(f"""
import contextlib, io, os
import repro.cli
from repro.pool import GracefulPool
with contextlib.redirect_stdout(io.StringIO()):
    try:
        repro.cli.main(["--help"])
    except SystemExit:
        pass
with GracefulPool(1) as pool:
    extra = {{"worker": pool.submit(os.getenv, {BLAS!r}).result(timeout=60)}}
""")
        assert seen["worker"] == "1"


#: package -> [len(__all__), digest of its sorted names], as
#: tests/data/pins.json holds them.
FACADES = pins().pinned("import.facades")


def declared_exports(package: str) -> dict[str, str]:
    """The ``lazy_exports`` table in the package's ``__init__``."""
    tree = ast.parse((SRC / package.replace(".", "/") / "__init__.py").read_text())
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "lazy_exports"
    ]
    assert len(calls) == 1, f"{package}: one declaration per package"
    return ast.literal_eval(calls[0].args[1])


class TestFacadesAreCompleteAndUnchanged:
    @pytest.mark.parametrize("package", FACADES)
    def test_all_is_the_parent_list(self, package):
        names = importlib.import_module(package).__all__
        assert len(names) == len(set(names))
        assert pins().produce("import.facades")[package] == FACADES[package]

    @pytest.mark.parametrize("package", FACADES)
    def test_every_name_resolves_to_its_defining_module(self, package):
        facade = importlib.import_module(package)
        table = declared_exports(package)
        assert set(table) <= set(facade.__all__)
        assert set(facade.__all__) <= set(dir(facade))
        for name in facade.__all__:
            resolved = getattr(facade, name)
            if name in table:  # else defined in the __init__ itself
                home = importlib.import_module(f"{package}.{table[name]}")
                assert resolved is getattr(home, name), name

    @pytest.mark.parametrize("package", FACADES)
    def test_star_import_binds_everything(self, package):
        namespace: dict = {}
        exec(f"from {package} import *", namespace)
        facade = importlib.import_module(package)
        assert set(facade.__all__) <= set(namespace)

    def test_unknown_attribute_is_an_attribute_error(self):
        import repro.cache

        with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
            repro.cache.nonesuch
        with pytest.raises(ImportError):
            exec("from repro.cache import nonesuch")


COLLISIONS = {
    "submodule_first": """
import repro.core.assign_paths
from repro.core import assign_paths
""",
    "facade_first": """
from repro.core import assign_paths
import repro.core.assign_paths
""",
}


@pytest.mark.parametrize("order", COLLISIONS)
def test_export_named_like_its_submodule_stays_the_function(order):
    """``repro.core.assign_paths`` is both a function and the submodule
    defining it; the import system binds the submodule over a lazy name,
    so it resolves eagerly."""
    seen = run_child(COLLISIONS[order] + """
import types, repro
again = [repro.core.assign_paths, repro.assign_paths, assign_paths]
exec("from repro.core import assign_paths as a; again += [a]")
extra = {"functions": [isinstance(f, types.FunctionType) for f in again],
         "homes": sorted({f.__module__ for f in again})}
""")
    assert all(seen["functions"]) and len(seen["functions"]) == 4
    assert seen["homes"] == ["repro.core.assign_paths"]


@needs_scipy
class TestHighsEngineSharesScipysModule:
    CHECK_SCIPY = """
import scipy.optimize
from scipy.optimize import linprog, milp
from scipy.optimize._highspy import _core
from repro.solvers import highs_engine
lp = linprog([1.0], A_eq=[[1.0]], b_eq=[1.0], method="highs")
ip = milp([1.0], integrality=[1], bounds=scipy.optimize.Bounds(1, 5))
from repro.solvers.ilp_backend import solve_integer
ilp = solve_integer(tiny_lp(), [1])
extra.update(
    same=_core is highs_engine._api()["hc"] is sys.modules[%r],
    linprog=lp.status, milp=ip.status, ilp=ilp.success,
)
""" % CORE

    def test_engine_first_then_scipy(self):
        seen = run_child(SOLVE + """
import sys
from repro.solvers import highs_engine
solved = get_backend().solve(tiny_lp())
extra = {"available": highs_engine.available(), "solved": solved.success,
         "before": "scipy.optimize" in sys.modules}
""" + self.CHECK_SCIPY)
        # No silent drop to linprog: the engine is up and scipy.optimize
        # was not what brought it up.
        assert seen["available"] and seen["solved"]
        assert seen["before"] is False
        assert seen["same"] is True
        assert (seen["linprog"], seen["milp"], seen["ilp"]) == (0, 0, True)

    def test_scipy_first_then_engine(self):
        seen = run_child(SOLVE + """
import sys, scipy.optimize
extra = {"solved": get_backend().solve(tiny_lp()).success}
""" + self.CHECK_SCIPY)
        assert seen["solved"] and seen["same"] is True
        assert (seen["linprog"], seen["milp"], seen["ilp"]) == (0, 0, True)

    def test_eight_threads_race_the_first_solve(self):
        seen = run_child(SOLVE + """
import sys, threading
barrier = threading.Barrier(8)
cores, failures = set(), []
def first_solve():
    try:
        barrier.wait(timeout=30)
        backend = get_backend()
        assert backend.solve(tiny_lp()).success
        cores.add(id(backend._get_engine()._hc))
    except BaseException as error:
        failures.append(repr(error))
old = sys.getswitchinterval()
sys.setswitchinterval(1e-6)
try:
    threads = [threading.Thread(target=first_solve) for _ in range(8)]
    for thread in threads: thread.start()
    for thread in threads: thread.join(timeout=60)
finally:
    sys.setswitchinterval(old)
extra = {"alive": sum(t.is_alive() for t in threads), "failures": failures,
         "cores": len(cores),
         "loaded": [m for m in sys.modules if m.endswith("._core")
                    and m.startswith("scipy")]}
""")
        assert seen["alive"] == 0 and seen["failures"] == []
        assert seen["cores"] == 1
        assert seen["loaded"] == [CORE]
        assert "scipy.optimize" not in seen["modules"]
