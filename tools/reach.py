#!/usr/bin/env python3
"""``python tools/reach.py``: which ``src/`` functions does no traffic execute?

Runs the manifest below — the six ``BENCHMARK.json`` workloads traced and
untraced, every ``repro-sr`` subcommand across its flags, ``examples/*.py``
— with ``tools/reach_hook`` first on ``PYTHONPATH``, whose ``sitecustomize``
logs each function of every interpreter the manifest starts on first call,
then prints every ``def`` in ``src/`` none of them called.  Evidence, not a
verdict: what stays on the list has a row in DESIGN.md section 5 saying why.
"""

import ast
import os
import re
import shlex
import signal
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TAMPER = ("import json; d = json.load(open('T/s.json')); d['slots'][sorted(d['slots'])[0]][0]"
          "['start'] += 1.0; json.dump(d, open('T/bad.json', 'w'))")
#: One command a line; ``T`` is a scratch directory, ``PORT`` the daemon's,
#: ``DVB`` a small feasible instance.  Non-zero exits are part of the traffic.
MANIFEST = f"""
python benchmarks/e2e/run.py --workload all --seed 0 --seconds 2 --trace 0
python benchmarks/e2e/run.py --workload all --seed 0 --seconds 2 --trace 1
repro-sr utilization DVB --loads 0.3 0.8
repro-sr pipeline DVB --loads 0.3 0.9
repro-sr compile DVB --export T/s.json --gantt 0 --cache-dir T/c
repro-sr compile DVB --cache-dir T/c
repro-sr compile DVB --lp-backend reference --allocator annealed --topology 8x8torus
repro-sr compile --models 16 --load 1.0 --allocator bfs
repro-sr matrix --topologies hypercube6 ghc444 --bandwidths 128 --loads 0.2 0.9 --models 5 --jobs 2 --cache-dir T/m --check
repro-sr matrix --topologies hypercube6 8x8torus --bandwidths 64 --loads 0.2 0.9 --models 5 --cache-dir T/m --allocator random
repro-sr diagnose DVB --deep --wr --json --cache-dir T/d
repro-sr diagnose DVB --topology 8x8torus --wr --json
repro-sr diagnose --models 16 --load 1.0 --wr --deep --cache-dir T/d
repro-sr diagnose --models 16 --load 1.0 --cache-dir T/d
repro-sr check T/s.json --revalidate --trace T/findings.json
python -c "{TAMPER}"
repro-sr check T/bad.json --trace T/findings.json
repro-sr check T/missing.json
repro-sr matrix --loads 1.5
repro-sr inspect T/s.json --gantt 0 --occupancy 5
repro-sr fuzz --base-seed 20 --count 6 --out T/fuzz --verbose
repro-sr faults --topology 6cube --fail-links 1 --drifts 1 --invocations 16 --warmup 4
repro-sr trace --mode sr --models 5 --chart 5 --out T/sr.json
repro-sr trace --mode wr --models 5 --chart 5 --out T/wr.json
repro-sr topology
repro-sr submit DVB --port PORT
repro-sr submit DVB --port PORT --kind diagnose --load 1.0 --json
repro-sr submit DVB --port PORT --kind check --no-wait
repro-sr submit DVB --port 1
""" + "".join(f"python {p}\n" for p in sorted((ROOT / "examples").glob("*.py")))


def _dataclass_fields(node: ast.ClassDef) -> dict[str, str]:
    """``{field: default}`` as a dataclass's generated ``__init__`` sees them
    (nothing for a plain class, a ``ClassVar`` or an ``init=False`` field)."""
    fields = {}
    if not any("dataclass" in ast.unparse(d) for d in node.decorator_list):
        return fields
    for statement in node.body:
        if not (isinstance(statement, ast.AnnAssign) and statement.value is not None
                and "ClassVar" not in ast.unparse(statement.annotation)):
            continue
        value, default = statement.value, ast.unparse(statement.value)
        if isinstance(value, ast.Call) and ast.unparse(value.func).endswith("field"):
            given = {k.arg: ast.unparse(k.value) for k in value.keywords}
            default = given.get("default", given.get("default_factory"))
            if given.get("init") == "False":
                continue
        if default is not None:
            fields[statement.target.id] = default
    return fields


def defined() -> dict[tuple[str, int | str], tuple[str, int, dict[str, str]]]:
    """``(file, first line) -> (qualname, line count, {defaulted parameter:
    default})`` of every ``def`` in ``src/`` — a decorated one starts at its
    first decorator, as its code does — and ``(file, qualname) -> (qualname,
    0, {defaulted field: default})`` of every class, whose fields are the
    defaulted parameters of a dataclass's generated ``__init__``."""
    found = {}

    def walk(node: ast.AST, prefix: str, path: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min(n.lineno for n in (child, *child.decorator_list))
                spec = child.args
                positional = [*spec.posonlyargs, *spec.args]
                pairs = [*zip(positional[len(positional) - len(spec.defaults):],
                              spec.defaults),
                         *((a, d) for a, d in zip(spec.kwonlyargs, spec.kw_defaults) if d)]
                found[path, first] = (prefix + child.name, child.end_lineno - first + 1,
                                      {a.arg: ast.unparse(d) for a, d in pairs})
                walk(child, f"{prefix}{child.name}.<locals>.", path)
            elif isinstance(child, ast.ClassDef):
                found[path, prefix + child.name] = (
                    prefix + child.name, 0, _dataclass_fields(child))
                walk(child, f"{prefix}{child.name}.", path)
            else:
                walk(child, prefix, path)

    for path in sorted(SRC.rglob("*.py")):
        walk(ast.parse(path.read_text()), "", str(path))
    return found


def ledger() -> list[tuple[str, str]]:
    """``(token, who sets it)`` for every back-quoted name in the first column
    of the DESIGN.md section 5 tables; a ``Class.a/b`` token is one per member."""
    section = (ROOT / "DESIGN.md").read_text().split("\n## 5.")[1].split("\n## ")[0]
    rows = []
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.split("|")[1:-1]]
        if len(cells) < 3 or set(cells[0]) <= set("-: "):
            continue
        for token in re.findall(r"`([^`]+)`", cells[0]):
            head, _, rest = token.partition("/")
            stem, dot, first = head.rpartition(".")
            members = (first, *rest.split("/")) if rest and dot else ()
            rows += [(f"{stem}.{name}", cells[2]) for name in members] or [(token, cells[2])]
    return rows


def option_token(token: str) -> tuple[str, list[str]]:
    """``function(a=, b=)`` -> ``("function", ["a", "b"])``; no options for a
    token that names a function, class or file."""
    function, _, inside = token.rstrip(")").partition("(")
    return function, [option.rstrip("=") for option in re.split(r",\s*", inside) if option]


def names(path: str, qualname: str, token: str) -> bool:
    """Does a ledger ``token`` name this function or class?  ``pkg/file.py``
    names everything in the file, ``file.py::name`` one thing in it, a bare
    dotted name any run of the qualified name's components."""
    file, _, name = token.rpartition("::")
    if token.endswith(".py"):
        return path.endswith("/" + token)
    return path.endswith(file) and f".{name}." in f".{qualname}."


def option_row(rows: list[tuple[str, str]], path: str, qualname: str,
               parameter: str) -> str | None:
    """The "who sets it" cell of the row ``function(parameter=)`` sits in."""
    owner = qualname.removesuffix(".__init__")
    for token, who in rows:
        function, options = option_token(token)
        if parameter in options and (
                function in ("", "…") or names(path, owner, function)):
            return who
    return None


def main() -> int:
    cli = f"{sys.executable} -m repro.cli"
    with tempfile.TemporaryDirectory() as tmp:
        paths = [str(ROOT / "tools" / "reach_hook"), str(SRC),
                 *filter(None, [os.environ.get("PYTHONPATH")])]
        env = dict(os.environ, REACH_OUT=tmp, PYTHONPATH=os.pathsep.join(paths))
        daemon = subprocess.Popen(  # the farm the ``submit`` lines talk to
            shlex.split(f"{cli} serve --port 0 --workers 1 --cache-dir {tmp}/farm"),
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        try:
            port = re.search(r":(\d+) ", daemon.stdout.readline()).group(1)
            for line in MANIFEST.strip().splitlines():
                for old, new in (("repro-sr", cli), ("python", sys.executable),
                                 ("DVB", "--models 5 --bandwidth 128"),
                                 ("T/", tmp + "/"), ("PORT", port)):
                    line = re.sub(rf"(?<![\w./]){old}", new, line)
                done = subprocess.run(
                    shlex.split(line), cwd=ROOT, env=env, timeout=1200,
                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
                print(f"exit {done.returncode}: {line}", flush=True)
        finally:
            daemon.send_signal(signal.SIGTERM)
            daemon.wait(timeout=60)
        called, varied = read_logs(Path(tmp))
    return report(called, varied)


def read_logs(directory: Path) -> tuple[set, set]:
    """What the hook wrote: ``(file, first line)`` of every function called
    (``(file, qualname)`` of a dataclass) and ``(…, parameter)`` of every
    defaulted parameter some call bound to a second value."""
    called, varied = set(), set()
    for log in directory.glob("*.tsv"):
        for line in log.read_text().splitlines():
            kind, path, qualname, first, *parameter = line.split("\t")
            key = (path, int(first) or qualname)
            (called if kind == "C" else varied).add((*key, *parameter))
    return called, varied


def report(called: set, varied: set) -> int:
    """Print the idle functions and the unvaried options; 1 when one of them
    has no DESIGN.md section 5 row."""
    everything, rows, unrowed = defined(), ledger(), 0
    functions = {key: value for key, value in everything.items() if value[1]}
    idle = sorted(set(functions) - called)
    for path, first in idle:
        qualname, lines, _ = functions[path, first]
        rowed = any(names(path, qualname, token) for token, _ in rows if "(" not in token)
        unrowed += not rowed
        print(f"{Path(path).relative_to(ROOT)}:{first}  {qualname}  ({lines})"
              + ("" if rowed else "  NO LEDGER ROW"))
    print(f"{len(idle)} of {len(functions)} functions in src/ never ran "
          f"({sum(functions[key][1] for key in idle)} lines)")
    print("options no call ever bound to a second value "
          "(who does set it: the DESIGN.md section 5 row):")
    counts = Counter()  # (is a dataclass field, "all" | "varied" | "fixed" | "uncalled")
    for (path, first), (qualname, lines, defaults) in sorted(
            everything.items(), key=lambda item: (item[0][0], str(item[0][1]))):
        for parameter, default in defaults.items():
            counts[not lines, "all"] += 1
            if (path, first, parameter) in varied:
                counts[not lines, "varied"] += 1
            elif (path, first) not in called:
                counts[not lines, "uncalled"] += 1  # rides on its function's row above
            else:
                counts[not lines, "fixed"] += 1
                who = option_row(rows, path, qualname, parameter)
                unrowed += who is None
                print(f"{Path(path).relative_to(ROOT)}:{first}  "
                      f"{qualname}({parameter}={default})  {who or 'NO LEDGER ROW'}")
    for field, what, owners in ((False, "parameters on src/ functions", "functions"),
                                (True, "dataclass fields in src/", "classes")):
        print(f"{counts[field, 'all']} defaulted {what}: {counts[field, 'varied']} "
              f"varied by the traffic, {counts[field, 'fixed']} never varied, "
              f"{counts[field, 'uncalled']} on {owners} never called")
    if unrowed:
        print(f"{unrowed} line(s) above have no DESIGN.md section 5 row")
    return 1 if unrowed else 0


if __name__ == "__main__":
    sys.exit(main())
