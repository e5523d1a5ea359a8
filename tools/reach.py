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
repro-sr matrix --topologies hypercube6 ghc444 --bandwidths 128 --loads 0.2 0.9 --models 5 --jobs 2 --cache-dir T/m --check --prescreen
repro-sr matrix --topologies hypercube6 8x8torus --bandwidths 64 --loads 0.2 0.9 --models 5 --cache-dir T/m --allocator random --prescreen
repro-sr diagnose DVB --deep --wr --json --cache-dir T/d
repro-sr diagnose DVB --topology 8x8torus --wr --json
repro-sr diagnose --models 16 --load 1.0 --wr --deep --cache-dir T/d
repro-sr diagnose --models 16 --load 1.0 --cache-dir T/d
repro-sr check T/s.json --revalidate --trace T/findings.json
python -c "{TAMPER}"
repro-sr check T/bad.json --trace T/findings.json
repro-sr check T/missing.json
repro-sr inspect T/s.json --gantt 0 --occupancy 5
repro-sr fuzz --base-seed 20 --count 6 --out T/fuzz --verbose
repro-sr lint src
repro-sr faults --topology 6cube --fail-links 1 --drifts 1 --invocations 16 --warmup 4
repro-sr trace --mode sr --models 5 --chart 5 --out T/sr.json
repro-sr trace --mode wr --models 5 --chart 5 --out T/wr.json
repro-sr topology
repro-sr submit DVB --port PORT
repro-sr submit DVB --port PORT --kind diagnose --load 1.0 --json
repro-sr submit DVB --port PORT --kind check --no-wait
repro-sr submit DVB --port 1
""" + "".join(f"python {p}\n" for p in sorted((ROOT / "examples").glob("*.py")))


def defined() -> dict[tuple[str, int], tuple[str, int]]:
    """``(file, first line) -> (qualname, line count)`` of every ``def`` in
    ``src/``; a decorated one starts at its first decorator, as its code does."""
    found = {}

    def walk(node: ast.AST, prefix: str, path: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min(n.lineno for n in (child, *child.decorator_list))
                found[path, first] = (prefix + child.name,
                                      child.end_lineno - first + 1)
                walk(child, f"{prefix}{child.name}.<locals>.", path)
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.", path)
            else:
                walk(child, prefix, path)

    for path in sorted(SRC.rglob("*.py")):
        walk(ast.parse(path.read_text()), "", str(path))
    return found


def main() -> None:
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
        called = set()
        for log in Path(tmp).glob("*.tsv"):
            for line in log.read_text().splitlines():
                path, _qualname, first = line.split("\t")
                called.add((path, int(first)))
    functions = defined()
    idle = sorted(set(functions) - called)
    for path, first in idle:
        qualname, lines = functions[path, first]
        print(f"{Path(path).relative_to(ROOT)}:{first}  {qualname}  ({lines})")
    print(f"{len(idle)} of {len(functions)} functions in src/ never ran "
          f"({sum(functions[key][1] for key in idle)} lines)")


if __name__ == "__main__":
    main()
