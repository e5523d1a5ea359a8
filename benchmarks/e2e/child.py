"""The measuring child process: one workload, set-up to result line.

Started by ``run.py`` with the checkout on ``PYTHONPATH``; this is the
only process of the benchmark that imports ``repro``.  The last line of
its stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from dataclasses import asdict
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() when run.py started this process")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace-file", type=Path, default=None)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and report setup_s only")
    args = parser.parse_args(argv)

    def terminate(signum, frame):
        raise SystemExit(128 + signum)   # unwind through the finally below

    signal.signal(signal.SIGTERM, terminate)

    from benchmarks.e2e import calibrate, rounds, spans, streams

    workloads = {
        cls.name: cls
        for cls in (rounds.MatrixCold, rounds.CacheReplay, rounds.PipelineSim,
                    streams.ServeHot, streams.ServeCold, rounds.CliOneshot)
    }
    workload = workloads[args.workload](args.seed, args.workdir,
                                        bool(args.trace))
    try:
        workload.setup()
        # Like every timing, at reference speed (see calibrate.py).
        raw_setup_s = time.time() - args.spawned_at
        result = {"setup_s": raw_setup_s / calibrate.slowdown_now(),
                  "raw_setup_s": raw_setup_s}
        if not args.setup_only:
            measurement = asdict(workload.measure(args.seconds))
            trace = measurement.pop("trace")
            if args.trace_file is not None:
                spans.write(args.trace_file, args.workload, trace)
            result.update(measurement)
    finally:
        workload.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
