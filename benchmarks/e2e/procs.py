"""Processes the benchmark starts: the serve daemon, and ``/proc`` readers
for the CPU time and peak RSS of a process tree."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

_TICK = os.sysconf("SC_CLK_TCK")


def descendants(pid: int) -> list[int]:
    """``pid`` and every live process below it (by parent pid)."""
    parents: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        # comm may hold spaces and parentheses: split after the last ')'.
        parents[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    tree = [pid]
    for candidate in sorted(parents):
        ancestor = candidate
        while ancestor in parents and ancestor != pid:
            ancestor = parents[ancestor]
        if ancestor == pid and candidate != pid:
            tree.append(candidate)
    return tree


def cpu_s(pids: list[int]) -> float:
    """user+sys CPU seconds of the processes, reaped children included."""
    total = 0
    for member in pids:
        try:
            stat = Path(f"/proc/{member}/stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        # utime, stime, cutime, cstime are fields 14-17 of the full line.
        total += sum(int(fields[i]) for i in (11, 12, 13, 14))
    return total / _TICK


def tree_peak_rss_mb(pid: int) -> float:
    """Largest ``VmHWM`` over the tree, in MB."""
    peak_kb = 0
    for member in descendants(pid):
        try:
            status = Path(f"/proc/{member}/status").read_text()
        except OSError:
            continue
        match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
        if match:
            peak_kb = max(peak_kb, int(match.group(1)))
    return peak_kb / 1024.0


def child_env(root: Path, tmp: Path) -> dict[str, str]:
    """Environment of every process the benchmark starts: the checkout
    on ``PYTHONPATH`` and temp files inside the checkout."""
    env = dict(os.environ)
    paths = [str(root / "src"), str(root)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["TMPDIR"] = str(tmp)
    return env


class Daemon:
    """``python -m repro.cli serve --port 0 --workers 1`` as a child
    process.  It stays in the measuring child's session, which ``run.py``
    kills as a whole when a run times out."""

    def __init__(self, cache_dir: Path, log: Path) -> None:
        self._log = open(log, "w")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--workers", "1", "--cache-dir", str(cache_dir)],
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        try:
            banner = self.process.stdout.readline()
            match = re.search(r"listening on \S+:(\d+) ", banner)
            if match is None:
                raise RuntimeError(f"serve daemon did not come up: {banner!r}")
            self.port = int(match.group(1))
        except BaseException:
            self.stop()
            raise
        self.pid = self.process.pid

    def stop(self) -> None:
        """SIGTERM (graceful drain of the worker pool), SIGKILL if it lingers."""
        process = self.process
        try:
            if process.poll() is None:
                process.terminate()
                try:
                    process.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait()
        finally:
            if process.stdout is not None:
                process.stdout.close()
            self._log.close()
