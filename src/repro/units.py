"""Time and bandwidth conventions used throughout the library.

All compile-time and simulation quantities are plain floats in a single
consistent unit system:

- time is in **microseconds**,
- message sizes are in **bytes**,
- link bandwidth ``B`` is in **bytes per microsecond** (equivalently MB/s),

matching the paper's figures (B = 64 or 128 bytes/usec).  A message of
``m`` bytes therefore occupies a link for ``m / B`` microseconds.

Floating-point schedules are compared with an absolute tolerance
:data:`EPS` that is far below one packet time for any realistic packet
size, so equality tests on schedule boundaries are robust.
"""

from __future__ import annotations

EPS = 1e-9
"""Absolute tolerance for schedule-time comparisons (microseconds)."""


def transmission_time(size_bytes: float, bandwidth: float) -> float:
    """Time, in microseconds, to transmit ``size_bytes`` at ``bandwidth``
    bytes/us.  Raises ``ValueError`` for non-positive bandwidth."""
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    if size_bytes < 0:
        raise ValueError(f"message size must be non-negative, got {size_bytes}")
    return size_bytes / bandwidth


def close(a: float, b: float) -> bool:
    """True when two schedule times are equal within tolerance."""
    return abs(a - b) <= EPS


def le(a: float, b: float) -> bool:
    """Tolerant ``a <= b`` for schedule times."""
    return a <= b + EPS


def lt(a: float, b: float) -> bool:
    """Tolerant strict ``a < b`` for schedule times."""
    return a < b - EPS


def wrap(t: float, period: float) -> float:
    """Reduce an absolute time onto the canonical frame ``[0, period)``.

    The scheduled-routing formulation observes a single time frame of
    ``[0, tau_in]`` (paper Section 4); all release times and deadlines are
    wrapped onto it.
    """
    if period <= 0:
        raise ValueError(f"period must be positive, got {period}")
    r = t % period
    # Guard against values like period - 1e-16 produced by the modulo.
    if close(r, period) or close(r, 0.0):
        return 0.0
    return r
