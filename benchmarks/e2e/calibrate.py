"""Machine-speed calibration: a fixed chunk of interpreter work.

The 2-core boxes this benchmark runs on change speed under it: the same
pure-Python loop takes 1.75 ms, 2.3 ms or 2.8 ms of CPU time depending
on the second (shared cores, clock changes), for tens of seconds at a
stretch, and a whole 12 s run can fall into one state.  Identical runs
then read 30-60 % apart, far beyond any bound worth setting.

So every timed reading is divided by the *slowdown* observed next to it:
the CPU time this chunk took there, over ``REFERENCE_CHUNK_S``, what it
takes on the reference box at its fastest.  A reading is then "time at
reference speed"; on another machine all readings shift by one constant
factor, which no comparison on one machine sees.  The raw readings are
kept beside the normalized ones in every result document.

CPU time (``time.thread_time``) and not wall time: a chunk that lost
the core to the daemon or to the other connection thread waited, it did
not run slower.

The chunk is the yardstick for work done in a running interpreter.  A
process start is different work (page faults, unmarshalling, ``dlopen``)
and slows down by another factor: while the chunk goes from 1.0 to 1.6
a CLI process goes from 1.0 to 1.4, and a 5 ms chunk taken right after
the measuring process woke up says little about the second the CLI
process ran for.  ``cli_oneshot`` is therefore measured against a
*reference process* (:func:`process_slowdown`), started before and after every
op: a fresh interpreter that imports what the CLI loads from outside the
repository and exits.  No change to the repository moves it.
"""

from __future__ import annotations

import subprocess
import sys
import threading
import time

from benchmarks.e2e import stats

CHUNK_LOOPS = 50_000
#: CPU seconds of one chunk on the reference box (Xeon @ 2.1 GHz, 2
#: vCPUs, CPython 3.11) in its fastest state.
REFERENCE_CHUNK_S = 0.00175
#: The reference process, and its wall seconds on the same box and state.
REFERENCE_PROCESS = (sys.executable, "-c", "import numpy, scipy.optimize")
REFERENCE_PROCESS_S = 0.55


def chunk_s() -> float:
    """CPU time of the chunk: the best of three runs, because the first
    one after this thread slept (waiting for a CLI process, or between
    two samples) runs on a cold core and reads up to 40 % high."""
    best = float("inf")
    for _ in range(3):
        start = time.thread_time()
        total = 0
        for i in range(CHUNK_LOOPS):
            total += i * i
        best = min(best, time.thread_time() - start)
    return best


def slowdown(chunk_seconds: float) -> float:
    return chunk_seconds / REFERENCE_CHUNK_S


def process_slowdown() -> float:
    """The slowdown one run of the reference process shows, start to exit."""
    start = time.perf_counter()
    subprocess.run(REFERENCE_PROCESS, check=True, stdout=subprocess.DEVNULL,
                   timeout=120)
    return (time.perf_counter() - start) / REFERENCE_PROCESS_S


def slowdown_now(chunks: int = 5) -> float:
    """The machine's slowdown right now (median of a few chunks)."""
    return slowdown(stats.median([chunk_s() for _ in range(chunks)]))


class Sampler:
    """Samples the slowdown on a background thread, for workloads whose
    ops run on other threads and in other processes (serve_*)."""

    INTERVAL_S = 0.15

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            self.samples.append(slowdown(chunk_s()))
            self._stop.wait(self.INTERVAL_S)

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def median(self) -> float:
        return stats.median(self.samples)
