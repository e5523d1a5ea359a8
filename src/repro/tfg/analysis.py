"""Timing analysis of task-flow graphs.

Binds a :class:`~repro.tfg.graph.TaskFlowGraph` to concrete processor
speeds and a link bandwidth, and derives the quantities the paper's
formulation rests on:

- per-task execution times ``C_i / s_i`` and ``tau_c`` (the longest task),
- per-message transmission times ``m_i / B`` and ``tau_m`` (the longest
  message),
- the **ASAP schedule** in which every message is granted a transfer
  window of length ``tau_c`` — "by allowing each message transmission to
  be as long as the longest task, latency may increase, but the maximum
  possible throughput remains the same" (Section 4) — which fixes the
  start/finish instants ``t_s``/``t_f`` that release times and deadlines
  are read from,
- the **critical path** with *actual* message transfer times, whose length
  is the minimum invocation latency (Section 2) and the denominator of the
  paper's normalized latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.errors import TFGError
from repro.tfg.graph import TaskFlowGraph
from repro.units import transmission_time


@dataclass(frozen=True)
class CriticalPath:
    """A maximum-weight input->output chain of tasks and messages.

    ``elements`` alternates task and message names starting and ending
    with tasks; ``length`` is the sum of the execution and transfer times
    along it (the paper's Lambda).
    """

    elements: tuple[str, ...]
    length: float


class TFGTiming:
    """Concrete timing of a TFG on a machine.

    Parameters
    ----------
    tfg:
        The task-flow graph (validated on construction).
    bandwidth:
        Link bandwidth in bytes per microsecond.
    speeds:
        Either a single float (every processor runs at that many
        operations per microsecond) or a mapping ``task name -> speed``.
    message_window:
        Length of the transfer window granted to every message in the
        ASAP schedule.  Defaults to ``tau_c`` per the paper; it must be at
        least ``tau_m`` or the longest message cannot fit its window.
    """

    def __init__(
        self,
        tfg: TaskFlowGraph,
        bandwidth: float,
        speeds: float | Mapping[str, float] = 1.0,
        message_window: float | None = None,
    ):
        tfg.validate()
        self.tfg = tfg
        self.bandwidth = float(bandwidth)
        if self.bandwidth <= 0:
            raise TFGError(f"bandwidth must be positive, got {bandwidth}")
        if isinstance(speeds, Mapping):
            missing = [t.name for t in tfg.tasks if t.name not in speeds]
            if missing:
                raise TFGError(f"speeds missing for tasks {missing}")
            bad = [n for n, s in speeds.items() if s <= 0]
            if bad:
                raise TFGError(f"non-positive speeds for tasks {bad}")
            self._speeds = dict(speeds)
        else:
            if speeds <= 0:
                raise TFGError(f"speed must be positive, got {speeds}")
            self._speeds = {t.name: float(speeds) for t in tfg.tasks}

        self.tau_c = max(self.exec_time(t.name) for t in tfg.tasks)
        self.tau_m = (
            max(self.xmit_time(m.name) for m in tfg.messages)
            if tfg.messages
            else 0.0
        )
        if message_window is None:
            message_window = self.tau_c
        if message_window < self.tau_m:
            raise TFGError(
                f"message window {message_window} is shorter than the longest "
                f"message transmission {self.tau_m}"
            )
        self.message_window = float(message_window)
        self._asap: dict[str, tuple[float, float]] | None = None

    # -- elementary times --------------------------------------------------

    def exec_time(self, task_name: str) -> float:
        """Execution time ``C_i / s_i`` of a task, in microseconds."""
        task = self.tfg.task(task_name)
        return task.ops / self._speeds[task_name]

    def xmit_time(self, message_name: str) -> float:
        """Transmission time ``m_i / B`` of a message, in microseconds."""
        message = self.tfg.message(message_name)
        return transmission_time(message.size_bytes, self.bandwidth)

    def speed(self, task_name: str) -> float:
        """Processor speed bound to a task (operations per microsecond)."""
        self.tfg.task(task_name)
        return self._speeds[task_name]

    # -- ASAP schedule with fixed message windows ----------------------------

    def asap_schedule(self) -> dict[str, tuple[float, float]]:
        """``task name -> (t_s, t_f)`` with every message taking
        :attr:`message_window` time.

        This is the static single-invocation schedule from which scheduled
        routing reads each message's availability instant; a task starts
        when the windows of all its incoming messages have closed.
        """
        if self._asap is not None:
            return dict(self._asap)
        schedule: dict[str, tuple[float, float]] = {}
        for name in self.tfg.topological_order():
            incoming = self.tfg.messages_in(name)
            if incoming:
                start = max(
                    schedule[m.src][1] + self.message_window for m in incoming
                )
            else:
                start = 0.0
            schedule[name] = (start, start + self.exec_time(name))
        self._asap = schedule
        return dict(schedule)

    def asap_latency(self) -> float:
        """Invocation latency of the windowed ASAP schedule — the latency
        scheduled routing achieves when feasible (paper Section 6)."""
        schedule = self.asap_schedule()
        return max(schedule[t.name][1] for t in self.tfg.output_tasks)

    def actual_asap_schedule(self) -> dict[str, tuple[float, float]]:
        """``task name -> (t_s, t_f)`` with *actual* transfer times.

        The contention-free baseline timetable: what one isolated
        invocation would do on an unloaded network.  Used by the
        wormhole OI-risk predictor (the paper's Section 3 conditions are
        phrased over these instants).
        """
        schedule: dict[str, tuple[float, float]] = {}
        for name in self.tfg.topological_order():
            incoming = self.tfg.messages_in(name)
            start = max(
                (
                    schedule[m.src][1] + self.xmit_time(m.name)
                    for m in incoming
                ),
                default=0.0,
            )
            schedule[name] = (start, start + self.exec_time(name))
        return schedule

    # -- critical path with actual transfer times ------------------------------

    def critical_path(self) -> CriticalPath:
        """The maximum-weight chain using *actual* message transfer times.

        Its length is the minimum possible invocation latency (the paper's
        Lambda, Section 2), used to normalize measured latencies.
        """
        best_finish: dict[str, float] = {}
        best_pred: dict[str, tuple[str, str] | None] = {}
        for name in self.tfg.topological_order():
            incoming = self.tfg.messages_in(name)
            start = 0.0
            pred: tuple[str, str] | None = None
            for message in incoming:
                candidate = best_finish[message.src] + self.xmit_time(message.name)
                if candidate > start:
                    start = candidate
                    pred = (message.src, message.name)
            best_finish[name] = start + self.exec_time(name)
            best_pred[name] = pred

        tail = max(
            (t.name for t in self.tfg.output_tasks),
            key=lambda n: best_finish[n],
        )
        chain: list[str] = [tail]
        while best_pred[chain[0]] is not None:
            src, msg = best_pred[chain[0]]  # type: ignore[misc]
            chain.insert(0, msg)
            chain.insert(0, src)
        return CriticalPath(tuple(chain), best_finish[tail])

    def __repr__(self) -> str:
        return (
            f"<TFGTiming {self.tfg.name!r}: tau_c={self.tau_c:.3f}us, "
            f"tau_m={self.tau_m:.3f}us, B={self.bandwidth}B/us>"
        )


def speeds_for_ratio(
    tfg: TaskFlowGraph,
    bandwidth: float,
    ratio: float,
) -> dict[str, float]:
    """Per-task speeds making every task take ``tau_m / ratio`` time.

    This reproduces the paper's experimental setup: "Processing speeds of
    AP's of the multicomputer have been selected in such a way that
    tau_m / tau_c = 1 for B = 64 bytes/usec and 0.5 for B = 128" and "all
    tasks are assumed to take the same time" (Section 6).

    >>> from repro.tfg.graph import build_tfg
    >>> g = build_tfg("d", [("a", 10), ("b", 30)], [("m", "a", "b", 128)])
    >>> speeds = speeds_for_ratio(g, bandwidth=64.0, ratio=1.0)
    >>> [round(g.task(n).ops / speeds[n], 6) for n in ("a", "b")]
    [2.0, 2.0]
    """
    if ratio <= 0:
        raise TFGError(f"ratio must be positive, got {ratio}")
    if not tfg.messages:
        raise TFGError("speeds_for_ratio needs at least one message")
    tau_m = max(
        transmission_time(m.size_bytes, bandwidth) for m in tfg.messages
    )
    task_time = tau_m / ratio
    return {t.name: t.ops / task_time for t in tfg.tasks}
