"""The instrument behind DESIGN.md section 5: ``tools/reach.py`` and its hook.

Two things are pinned.  What the ``sys.setprofile`` hook counts as "a
second value" for a defaulted parameter — run for real, in a subprocess,
over a synthetic ``repro.synthetic`` module — and that the ledger the tool
checks its output against does not outlive its subjects: every name a
section 5 row carries still exists in ``src/``.
"""

import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def reach():
    spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SYNTHETIC = '''
import dataclasses
import functools


def plain(a, flag=False, scale=1, *, limit=10):
    return a


@functools.lru_cache(maxsize=None)
def decorated(x, depth=3):
    return x


def generator(n, start=0):
    for _ in range(n):
        start += 1  # a resume sees the rebound value, not a second call
        yield start


def untouched(y=5):
    return y


@dataclasses.dataclass
class Options:
    size: int = 4
    tags: list = dataclasses.field(default_factory=list)
    name: str = "x"
'''

TRAFFIC = '''
from repro import synthetic as s

s.plain(1)
s.plain(1, flag=False, scale=1, limit=10)   # the defaults, spelled out
s.plain(1, flag=0, scale=1.0)               # 0 == False, 1.0 == 1
s.plain(1, limit=11)                        # a keyword-only second value
s.decorated(1)
s.decorated(2, depth=3)
assert list(s.generator(3)) == [1, 2, 3]
s.Options()
s.Options(size=4, tags=[])
s.Options(name="y")
'''


def test_hook_semantics(reach, tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "synthetic.py").write_text(textwrap.dedent(SYNTHETIC))
    logs = tmp_path / "logs"
    logs.mkdir()
    env = dict(
        os.environ, REACH_OUT=str(logs),
        PYTHONPATH=os.pathsep.join([str(ROOT / "tools" / "reach_hook"),
                                    str(tmp_path / "src")]),
    )
    subprocess.run([sys.executable, "-c", TRAFFIC], env=env, check=True, timeout=120)
    called, varied = reach.read_logs(logs)
    module = str(package / "synthetic.py")
    # ``read_logs`` keys a function by its first line — a decorated one
    # starts at its decorator — and a dataclass by name.
    source = textwrap.dedent(SYNTHETIC).splitlines()
    lines = {name: source.index(text) + 1 for name, text in {
        "plain": "def plain(a, flag=False, scale=1, *, limit=10):",
        "decorated": "@functools.lru_cache(maxsize=None)",
        "generator": "def generator(n, start=0):",
        "untouched": "def untouched(y=5):",
    }.items()}
    # (Module and class bodies are calls too; the tool looks up ``def``s.)
    assert called >= {(module, lines["plain"]), (module, lines["decorated"]),
                      (module, lines["generator"]), (module, "Options")}
    assert (module, lines["untouched"]) not in called
    # Explicit defaults, ``0`` for ``False``, ``1.0`` for ``1`` and a
    # generator's resumes are not second values; the keyword-only one and
    # the dataclass fields are seen (anything passed for a
    # ``default_factory`` field counts: the hook never calls a factory).
    assert varied == {(module, lines["plain"], "limit"),
                      (module, "Options", "name"), (module, "Options", "tags")}


def test_ledger_rows_name_things_that_exist(reach):
    """A section 5 row that outlives its subject is the drift PRs 21-23
    each fixed by hand: every back-quoted name in a first column is a
    file, function or class of ``src/``, and every ``function(option=)``
    names a defaulted parameter (or dataclass field) that function has."""
    everything = reach.defined()
    stale = []
    for token, _ in reach.ledger():
        function, options = reach.option_token(token)
        owners = [
            defaults for (path, _), (qualname, _, defaults) in everything.items()
            if function in ("", "…")
            or reach.names(path, qualname.removesuffix(".__init__") if options
                           else qualname, function)
        ]
        if token.endswith(".py"):
            if not (ROOT / "src" / "repro" / token).is_file():
                stale.append(token)
        elif not owners:
            stale.append(token)
        stale += [f"{function}({option}=)" for option in options
                  if not any(option in defaults for defaults in owners)]
    assert not stale, f"DESIGN.md section 5 names what src/ no longer has: {stale}"
