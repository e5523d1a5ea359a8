"""Survivability metrics: what a fault costs before its repair lands.

A question a real-time deployment asks of scheduled routing that the
paper does not: **how many deadlines die in the outage window?**
Between the fault instant and the moment a repaired schedule is applied,
every scheduled transmission crossing the dead link is lost —
:func:`outage_misses` counts the lost message instances and the pipeline
invocations they doom, directly from the compiled schedule's absolute
slot times.  (Degraded-mode jitter comes from
:func:`repro.metrics.jitter.jitter_report`.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.topology.base import Link

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.executor import ScheduledRoutingExecutor


# -- outage-window accounting -------------------------------------------------

@dataclass(frozen=True)
class OutageReport:
    """Deliveries lost while a failure outlived its repair.

    Attributes
    ----------
    window:
        The ``[fault, repair applied)`` absolute-time interval.
    missed_instances:
        Each ``(message, invocation)`` whose scheduled transmission
        crossed a failed link inside the window.
    missed_invocations:
        Pipeline invocations doomed by at least one lost delivery.
    """

    window: tuple[float, float]
    missed_instances: tuple[tuple[str, int], ...]
    missed_invocations: tuple[int, ...]

    @property
    def num_missed_deliveries(self) -> int:
        return len(self.missed_instances)

    @property
    def num_missed_invocations(self) -> int:
        return len(self.missed_invocations)


def outage_misses(
    executor: "ScheduledRoutingExecutor",
    failed_links: Iterable[Link],
    window: tuple[float, float],
    invocations: int,
) -> OutageReport:
    """Count deliveries a link outage kills before the repair lands.

    A message instance is lost when any of its absolute transmission
    slots overlaps the outage window on a failed link; its pipeline
    invocation then misses its deadline (the destination task starves).
    """
    failed = frozenset((min(u, v), max(u, v)) for u, v in failed_links)
    t0, t1 = window
    missed: list[tuple[str, int]] = []
    doomed: set[int] = set()
    for name, slots in executor.routing.schedule.slots.items():
        on_failed = any(link in failed for slot in slots for link in slot.links)
        if not on_failed:
            continue
        for j in range(invocations):
            for start, end in executor.absolute_slots(name, j):
                if start < t1 and end > t0:
                    missed.append((name, j))
                    doomed.add(j)
                    break
    return OutageReport(
        window=(t0, t1),
        missed_instances=tuple(missed),
        missed_invocations=tuple(sorted(doomed)),
    )
