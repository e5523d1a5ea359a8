"""Jitter metrics for real-time output streams.

Output inconsistency is a boolean; real-time engineering wants the
magnitude.  These are the standard figures for a periodic stream whose
ideal inter-output interval is ``tau_in``:

- **peak-to-peak jitter**: max interval minus min interval,
- **RMS jitter**: root-mean-square deviation of intervals from ``tau_in``,
- **worst lateness / worst earliness**: the signed extremes of each
  output's deviation from the best-fit ideal grid.

The ideal grid is anchored by *best fit* over the whole window, not at
the first measured completion.  Anchoring at the first completion makes
that output late by zero by definition, so a stream that is uniformly
drifting (every interval slightly longer than ``tau_in``) reported zero
lateness no matter how far the last output slipped.  With deviations
``d_k = c_k - k * tau_in``, the least-squares anchor is ``a = mean(d_k)``;
lateness and earliness are the extremes of ``d_k - a``.  A perfectly
periodic stream has every ``d_k`` equal, so both extremes are zero
regardless of where the stream started — phase offsets still do not
count as jitter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class JitterReport:
    """Magnitude of output-timing irregularity for one run."""

    tau_in: float
    peak_to_peak: float
    rms: float
    worst_lateness: float
    worst_earliness: float

    @property
    def is_jitter_free(self) -> bool:
        """True for a perfectly periodic output stream."""
        return (
            self.peak_to_peak <= 1e-9
            and self.worst_lateness <= 1e-9
            and self.worst_earliness <= 1e-9
        )


def jitter_report(
    completion_times: Sequence[float],
    tau_in: float,
) -> JitterReport:
    """Compute jitter figures from a completion-time series.

    ``completion_times`` should already exclude warm-up.  The ideal
    emission grid ``a + k * tau_in`` uses the least-squares best-fit
    offset ``a`` (the mean deviation), so uniform drift shows up as
    lateness/earliness while a pure phase offset does not.
    """
    if len(completion_times) < 3:
        raise ValueError(
            f"need at least 3 completions to measure jitter, got "
            f"{len(completion_times)}"
        )
    if tau_in <= 0:
        raise ValueError(f"tau_in must be positive, got {tau_in}")
    intervals = [
        b - a for a, b in zip(completion_times, completion_times[1:])
    ]
    peak_to_peak = max(intervals) - min(intervals)
    rms = math.sqrt(
        sum((delta - tau_in) ** 2 for delta in intervals) / len(intervals)
    )
    deviations = [
        completion - k * tau_in
        for k, completion in enumerate(completion_times)
    ]
    anchor = sum(deviations) / len(deviations)
    worst_lateness = max(d - anchor for d in deviations)
    worst_earliness = max(anchor - d for d in deviations)
    return JitterReport(
        tau_in=tau_in,
        peak_to_peak=peak_to_peak,
        rms=rms,
        worst_lateness=max(worst_lateness, 0.0),
        worst_earliness=max(worst_earliness, 0.0),
    )
