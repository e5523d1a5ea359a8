"""Run the end-to-end benchmark: one workload (or all) in fresh child processes.

    python3 benchmarks/e2e/run.py --workload NAME|all --seed N \
        [--seconds S] [--trace 0|1] [--out FILE]

Prints every metric by name with its unit, then one JSON object on the
last line: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  Exits 1 when any op failed its correctness check.

This process never imports ``repro``; each workload runs in
``child.py`` so imports, caches and peak RSS do not leak between them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e import names, procs, stats  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
#: A child that has not answered by then is killed (the driver allows 180 s).
CHILD_TIMEOUT_S = 170
#: Fresh-process set-ups per untraced run.
SETUP_REPEATS = 3


def fingerprint(seed: int, seconds: float) -> dict:
    """The machine a number was taken on; never read one without it."""
    def version(package: str) -> str:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "missing"

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "load_1m_at_start": os.getloadavg()[0],
        "seed": seed,
        "seconds_per_workload": seconds,
    }


def run_child(workload: str, seed: int, seconds: float, trace: int,
              workdir: Path, env: dict, setup_only: bool) -> dict:
    workdir.mkdir()
    command = [
        sys.executable, "-m", "benchmarks.e2e.child",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--workdir", str(workdir), "--spawned-at", repr(time.time()),
    ]
    if setup_only:
        command.append("--setup-only")
    if trace:
        command += ["--trace-file", str(OUT / f"trace-{workload}.json")]
    child = subprocess.Popen(command, cwd=ROOT, env=env,
                             stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        # Timed out or interrupted: take the child's whole session down.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
        raise
    if child.returncode != 0:
        raise RuntimeError(
            f"{workload}: child exited {child.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Set up ``SETUP_REPEATS`` times (fresh processes, each in its own
    work directory so that none finds the caches of the one before;
    ``setup_s`` is the median), measure in the last one."""
    tmp = OUT / f"tmp-{os.getpid()}-{workload}"
    tmp.mkdir(parents=True, exist_ok=True)
    env = procs.child_env(ROOT, tmp)
    try:
        repeats = 1 if trace else SETUP_REPEATS
        setups = [
            run_child(workload, seed, seconds, trace, tmp / str(number), env,
                      True)
            for number in range(repeats - 1)
        ]
        result = run_child(workload, seed, seconds, trace, tmp / "measured",
                           env, False)
        setups.append(result)
        result["setup_samples"] = [s["setup_s"] for s in setups]
        result["setup_s"] = stats.median(result["setup_samples"])
        result["raw"]["setup_s"] = stats.median(
            [s["raw_setup_s"] for s in setups])
        del result["raw_setup_s"]
        return result
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def metrics_of(result: dict, trace: int) -> dict:
    if trace:
        layers = result["layers"]
        return {
            name: {"value": float(layers.get(name, 0.0)),
                   "unit": names.UNITS[name]}
            for name in names.PER_LAYER_NAMES
        }
    return {
        name: {"value": result[name], "unit": names.UNITS[name]}
        for name in names.END_TO_END_NAMES
    }


def report(workload: str, result: dict, metrics: dict) -> None:
    samples = result["percentile_samples"]
    beyond = stats.samples_beyond(samples, 0.9)
    print(f"== {workload}: {result['rounds']} round(s), "
          f"{result['attempted']} ops attempted, "
          f"{len(result['failures'])} failed; machine slowdown "
          f"{result['slowdown']:.3f} (timings are at reference speed, "
          "see calibrate.py)")
    for name, entry in metrics.items():
        note = ""
        if name in ("op_p50_ms", "op_p90_ms"):
            note = f"  (n={samples}"
            if name == "op_p90_ms":
                note += f", {beyond} beyond"
                if not stats.percentile_supported(samples, 0.9):
                    note += ": fewer than 10, read with care"
            note += ")"
        elif name == "setup_s":
            note = f"  (median of {len(result['setup_samples'])})"
        if name in result["raw"]:
            note += f"  raw {result['raw'][name]:.4f}"
        print(f"{workload:13s} {name:30s} {entry['value']:14.4f} "
              f"{entry['unit']}{note}")
    for failure in result["failures"][:10]:
        print(f"{workload:13s} FAILED {failure}")


def append_run(path: Path, run: dict) -> None:
    document = {"runs": []}
    if path.exists():
        document = json.loads(path.read_text())
    document["runs"].append(run)
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", default="all",
                        choices=(*names.WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=names.RUN_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", type=Path, default=None,
                        help="append this run to FILE (input of compare.py)")
    parser.add_argument("--write-expected", action="store_true",
                        help="pin this run's outcomes as expected/seed0.json "
                             "(all workloads, seed 0, untraced)")
    args = parser.parse_args(argv)
    if args.write_expected and (
        args.workload != "all" or args.seed != 0 or args.trace
    ):
        parser.error("--write-expected needs --workload all --seed 0 --trace 0")

    def terminate(signum, frame):
        raise SystemExit(128 + signum)   # unwind through run_child's cleanup

    signal.signal(signal.SIGTERM, terminate)

    selected = (names.WORKLOAD_NAMES if args.workload == "all"
                else (args.workload,))
    run = {"fingerprint": fingerprint(args.seed, args.seconds),
           "trace": args.trace, "workloads": {}}
    metrics: dict = {}
    attempted = failed = 0
    for workload in selected:
        result = run_workload(workload, args.seed, args.seconds, args.trace)
        metrics[workload] = metrics_of(result, args.trace)
        report(workload, result, metrics[workload])
        attempted += result["attempted"]
        failed += len(result["failures"])
        run["workloads"][workload] = {
            "metrics": metrics[workload],
            "attempted": result["attempted"],
            "failed": len(result["failures"]),
            "failures": result["failures"][:20],
            "rounds": result["rounds"],
            "percentile_samples": result["percentile_samples"],
            "setup_samples": result["setup_samples"],
            "slowdown": result["slowdown"],
            "raw": result["raw"],
            "observed": result["observed"],
        }
    if args.write_expected:
        expected = HERE / "expected" / "seed0.json"
        expected.parent.mkdir(exist_ok=True)
        expected.write_text(json.dumps(
            {name: entry["observed"]
             for name, entry in run["workloads"].items()},
            indent=1, sort_keys=True) + "\n")
        print(f"expected outcomes written to {expected}")
    if args.out is not None:
        append_run(args.out, run)
    print("fingerprint " + json.dumps(run["fingerprint"], sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics[selected[0]] if len(selected) == 1 else metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
