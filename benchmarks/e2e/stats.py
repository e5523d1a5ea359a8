"""Order statistics the harness and the comparison share."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: A percentile is *supported* when at least this many samples lie
#: beyond it (choosing-metrics guide, section 1).
MIN_SAMPLES_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values))


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile (0..1) with linear interpolation."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return float(
        ordered[low] + (ordered[high] - ordered[low]) * (position - low)
    )


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly beyond the ``q`` quantile."""
    return int(math.floor(count * (1.0 - q) + 1e-9))


def percentile_supported(count: int, q: float) -> bool:
    return samples_beyond(count, q) >= MIN_SAMPLES_BEYOND


def quartiles(values: Sequence[float]) -> tuple[float, float]:
    """First and third quartile, as ``statistics.quantiles(n=4)`` gives."""
    if len(values) < 2:
        only = float(values[0])
        return only, only
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    mid = median(values)
    return (q3 - q1) / mid if mid else 0.0
