"""Series statistics for pipelined-execution measurements."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class SpikeStats:
    """Min / mean / max of a measured series.

    This is exactly what the paper's figures draw: "the maximum (minimum)
    value of the upward (downward) spike corresponds to the maximum
    (minimum) value of the output generation interval ...; the middle
    value corresponds to the average" (Section 6).
    """

    minimum: float
    mean: float
    maximum: float

    @classmethod
    def from_series(cls, series: Sequence[float]) -> "SpikeStats":
        if not series:
            raise ValueError("cannot summarize an empty series")
        return cls(min(series), sum(series) / len(series), max(series))

    @property
    def spread(self) -> float:
        """max - min; zero iff the series is constant."""
        return self.maximum - self.minimum

    def is_constant(self, tol: float) -> bool:
        """True when the series varies by at most ``tol``."""
        return self.spread <= tol


def output_intervals(completion_times: Sequence[float]) -> list[float]:
    """Intervals between successive invocation completions."""
    return [b - a for a, b in zip(completion_times, completion_times[1:])]


#: Relative tolerance of the OI test (DESIGN.md section 6, "OI detection").
OI_REL_TOL = 1e-6


def has_output_inconsistency(
    intervals: Sequence[float],
    tau_in: float,
) -> bool:
    """Paper Eq. 1: pipelining is consistent iff every output interval
    equals ``tau_in``.  Measured intervals are compared with a relative
    tolerance to absorb floating-point noise."""
    tol = OI_REL_TOL * tau_in
    return any(abs(delta - tau_in) > tol for delta in intervals)


def normalized_throughput_stats(
    intervals: Sequence[float],
    tau_in: float,
) -> SpikeStats:
    """Spike statistics of normalized throughput ``tau_in / tau_out``.

    The minimum throughput comes from the *longest* output interval and
    vice versa, so the spike is computed on the interval series and then
    inverted.
    """
    raw = SpikeStats.from_series(intervals)
    return SpikeStats(
        minimum=tau_in / raw.maximum,
        mean=tau_in / raw.mean,
        maximum=tau_in / raw.minimum,
    )


def normalized_latency_stats(
    latencies: Sequence[float],
    critical_path_length: float,
) -> SpikeStats:
    """Spike statistics of normalized latency ``lambda_j / Lambda``."""
    if critical_path_length <= 0:
        raise ValueError(
            f"critical path length must be positive, got {critical_path_length}"
        )
    raw = SpikeStats.from_series(latencies)
    return SpikeStats(
        minimum=raw.minimum / critical_path_length,
        mean=raw.mean / critical_path_length,
        maximum=raw.maximum / critical_path_length,
    )


def load_sweep(points: int = 12) -> list[float]:
    """Evenly spaced normalized-load values over ``[0.2, 1.0]``.

    The paper selects "twelve different values of the input period between
    its minimum value of tau_c and 5*tau_c" — i.e. loads spanning
    [0.2, 1.0]; larger periods "are not interesting because messages from
    different invocations do not contend" (Section 6).

    >>> pts = load_sweep()
    >>> len(pts), pts[0], pts[-1]
    (12, 0.2, 1.0)
    """
    if points < 2:
        raise ValueError(f"need at least 2 sweep points, got {points}")
    low, high = 0.2, 1.0
    step = (high - low) / (points - 1)
    return [round(low + i * step, 10) for i in range(points)]
