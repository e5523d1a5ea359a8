"""Compare sets of benchmark runs, one row per (metric, workload).

    python3 benchmarks/e2e/compare.py PARENT.json CHANGE.json [MORE.json ...]
    python3 benchmarks/e2e/compare.py --selfcheck [--runs N] [--workload W]

Each FILE is what ``run.py --out FILE`` appends runs to; the first file
is the parent, every further file is compared against it.  For every
end-to-end metric and workload the row gives both medians and quartiles,
the ratio with its base, and a verdict by the metric's bound in
``names.py``:

- ``within``      the change's median is no worse than the bound allows;
- ``REGRESSED``   it is worse by more than the bound;
- ``unresolved``  the run-to-run spread of either side exceeds the
                  bound, unless every run of the change reads better
                  than every run of the parent (then ``better``).

The last column applies the rule for claiming a gain: runs are paired in
order (run them alternating), at least ten pairs, the change wins at
least nine tenths of them (ties count for neither side), and the medians
differ by more than the parent's inter-quartile distance.

``--selfcheck`` runs this commit's benchmark twice, alternating, and
exits 1 if the two sets disagree on any end-to-end metric by more than
its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e import names, stats  # noqa: E402

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: Path) -> dict[tuple[str, str], list[float]]:
    """``(workload, metric) -> values`` over a file's untraced runs, in
    run order."""
    values: dict[tuple[str, str], list[float]] = {}
    for run in json.loads(path.read_text())["runs"]:
        if run["trace"]:
            continue
        for workload, entry in run["workloads"].items():
            for metric, reading in entry["metrics"].items():
                values.setdefault((workload, metric), []).append(
                    reading["value"])
    return values


def better(metric: str, a: float, b: float) -> bool:
    """Whether reading ``a`` is better than reading ``b``."""
    return a < b if names.BETTER[metric] == "lower" else a > b


def worse_by(metric: str, parent: float, change: float) -> float:
    """How much worse the change reads, as a share of the parent."""
    delta = change - parent
    if names.BETTER[metric] == "higher":
        delta = -delta
    return delta / parent if parent else 0.0


def verdict(metric: str, parent: list[float], change: list[float]) -> str:
    bound = names.BOUNDS[metric]
    if max(stats.spread(parent), stats.spread(change)) > bound:
        if all(better(metric, c, p) for c in change for p in parent):
            return "better"
        return "unresolved"
    regression = worse_by(metric, stats.median(parent), stats.median(change))
    return "REGRESSED" if regression > bound else "within"


def gain(metric: str, parent: list[float], change: list[float]) -> str:
    """The paired rule; ``-`` when there are fewer than ten pairs."""
    pairs = list(zip(parent, change))
    if len(pairs) < MIN_PAIRS:
        return f"- ({len(pairs)} pairs)"
    wins = sum(better(metric, c, p) for p, c in pairs)
    q1, q3 = stats.quartiles(parent)
    gap = abs(stats.median(change) - stats.median(parent))
    claimed = wins >= WIN_SHARE * len(pairs) and gap > (q3 - q1)
    return f"{'gain' if claimed else 'no gain'} ({wins}/{len(pairs)} wins)"


def compare(parent: dict, change: dict, label: str) -> list[str]:
    """Print the table; returns the rows' verdicts."""
    print(f"== {label}")
    print(f"{'workload':13s} {'metric':14s} {'unit':5s} "
          f"{'parent med [q1, q3]':>34s} {'change med [q1, q3]':>34s} "
          f"{'change/parent':>13s} {'bound':>5s}  verdict     gain rule")
    verdicts = []
    for workload in names.WORKLOAD_NAMES:
        for metric in names.END_TO_END_NAMES:
            p = parent.get((workload, metric))
            c = change.get((workload, metric))
            if not p or not c:
                continue

            def cell(values: list[float]) -> str:
                q1, q3 = stats.quartiles(values)
                return (f"{stats.median(values):11.4f} "
                        f"[{q1:9.4f}, {q3:9.4f}]")

            row = verdict(metric, p, c)
            verdicts.append(row)
            print(f"{workload:13s} {metric:14s} {names.UNITS[metric]:5s} "
                  f"{cell(p):>34s} {cell(c):>34s} "
                  f"{stats.median(c) / stats.median(p):13.4f} "
                  f"{names.BOUNDS[metric]:5.2f}  {row:11s} "
                  f"{gain(metric, p, c)}")
    return verdicts


def selfcheck(runs: int, workload: str, seconds: float) -> int:
    """Two alternating sets of runs of this commit must agree within
    every end-to-end metric's own bound."""
    out = Path(__file__).with_name("out")
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as scratch:
        files = [Path(scratch) / "a.json", Path(scratch) / "b.json"]
        for number in range(2 * runs):
            subprocess.run(
                [sys.executable, str(Path(__file__).with_name("run.py")),
                 "--workload", workload, "--seed", str(number // 2),
                 "--seconds", str(seconds),
                 "--out", str(files[number % 2])],
                check=True, stdout=subprocess.DEVNULL,
            )
        first, second = load(files[0]), load(files[1])
    compare(first, second, f"selfcheck: {runs} alternating runs per side")
    disagreements = [
        f"{workload} {metric}"
        for (workload, metric), values in first.items()
        if abs(worse_by(metric, stats.median(values),
                        stats.median(second[(workload, metric)])))
        > names.BOUNDS[metric]
    ]
    for row in disagreements:
        print(f"DISAGREES beyond its bound: {row}")
    return 1 if disagreements else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("files", nargs="*", type=Path)
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--runs", type=int, default=3,
                        help="runs per side of --selfcheck")
    parser.add_argument("--workload", default="all",
                        choices=(*names.WORKLOAD_NAMES, "all"))
    parser.add_argument("--seconds", type=float, default=names.RUN_SECONDS)
    args = parser.parse_args(argv)
    if args.selfcheck:
        return selfcheck(args.runs, args.workload, args.seconds)
    if len(args.files) < 2:
        parser.error("give the parent's file and at least one more")
    parent = load(args.files[0])
    verdicts: list[str] = []
    for path in args.files[1:]:
        verdicts += compare(parent, load(path),
                            f"{path} against {args.files[0]}")
    return 1 if "REGRESSED" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
