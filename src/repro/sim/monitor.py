"""Timestamped series recording for simulations."""

from __future__ import annotations

from typing import Any, Iterator


class Monitor:
    """Append-only record of ``(time, value)`` observations.

    Simulators use monitors to record per-invocation completion times and
    link occupancy; the metrics layer turns them into the throughput and
    latency series the paper's figures plot.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self._times: list[float] = []
        self._values: list[Any] = []

    def record(self, time: float, value: Any) -> None:
        """Append one observation.  Times must be non-decreasing."""
        if self._times and time < self._times[-1]:
            raise ValueError(
                f"monitor {self.name!r}: time went backwards "
                f"({time} < {self._times[-1]})"
            )
        self._times.append(time)
        self._values.append(value)

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[tuple[float, Any]]:
        return iter(zip(self._times, self._values))
