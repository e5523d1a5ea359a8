"""Message time bounds and the interval decomposition (paper Sections 4, 5.1).

For maximum throughput every task executes once per ``tau_in`` and every
message must flow at the same rate.  From the windowed ASAP schedule each
message ``M_i`` gets a release time ``r_i`` (the instant its source task
finishes) and a deadline ``d_i = r_i + w`` (``w`` = the message window,
``tau_c`` by default), both wrapped onto the canonical frame
``[0, tau_in)``.  "Mi must be transmitted in interval [ri, di] if di > ri
or in [0, di] and [ri, tau_in] when di < ri"; because all messages recur
with the same period, observing this single frame accounts for every
in-flight instance at once.

The distinct window endpoints split the frame into ``K`` intervals
``A_1 .. A_K``; the **message activity matrix** ``A`` marks which messages
are available for transmission in which interval (paper Section 5.1).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from repro.errors import SchedulingError
from repro.tfg.analysis import TFGTiming
from repro.units import EPS, le, wrap


@dataclass(frozen=True)
class MessageTimeBounds:
    """Release/deadline bounds of one message on the frame ``[0, tau_in)``.

    Attributes
    ----------
    name:
        Message name.
    release, deadline:
        Frame instants; ``deadline < release`` indicates a wrapped window.
    duration:
        Transmission time ``m_i / B`` that must be scheduled inside the
        window.
    windows:
        The window as one or two non-wrapping frame segments.
    """

    name: str
    release: float
    deadline: float
    duration: float
    windows: tuple[tuple[float, float], ...]

    @property
    def active_length(self) -> float:
        """Total frame time during which the message may be transmitted."""
        return sum(end - start for start, end in self.windows)

    @property
    def slack(self) -> float:
        """Window time beyond the transmission requirement (paper Eq. 2)."""
        return self.active_length - self.duration

    @property
    def no_slack(self) -> bool:
        """Equality in Eq. 2: the message fully occupies its window."""
        return self.slack <= EPS

    def contains(self, start: float, end: float) -> bool:
        """True when ``[start, end]`` lies inside one of the windows."""
        for ws, we in self.windows:
            if le(ws, start) and le(end, we):
                return True
        return False


class IntervalSet:
    """The frame split at every distinct window endpoint.

    ``boundaries`` has ``K + 1`` entries ``0 = t_0 < ... < t_K = tau_in``;
    interval ``A_k`` (0-indexed here) is ``[t_k, t_{k+1}]``.
    """

    def __init__(self, boundaries: list[float], tau_in: float):
        self.tau_in = tau_in
        self.boundaries = tuple(boundaries)
        if len(self.boundaries) < 2:
            raise SchedulingError("interval set needs at least one interval")
        self.lengths = tuple(
            b - a for a, b in zip(self.boundaries, self.boundaries[1:])
        )

    @property
    def count(self) -> int:
        return len(self.lengths)

    def interval(self, k: int) -> tuple[float, float]:
        """Endpoints of interval ``A_k``."""
        return self.boundaries[k], self.boundaries[k + 1]

    def __repr__(self) -> str:
        return f"<IntervalSet K={self.count} over [0, {self.tau_in}]>"


class TimeBoundSet:
    """Time bounds for every routed message plus the interval machinery.

    Messages whose source and destination tasks share a node never touch
    the network; they are excluded here (the compiler checks their windows
    trivially hold).

    Attributes
    ----------
    tau_in:
        Input period (the frame length).
    bounds:
        ``message name -> MessageTimeBounds``.
    intervals:
        The :class:`IntervalSet` induced by all window endpoints.
    activity:
        Boolean matrix ``A``; ``activity[i, k]`` is True when message ``i``
        (in :attr:`order`) is available throughout interval ``A_k``.
    order:
        Message names in a fixed order indexing the activity matrix rows.
    """

    def __init__(
        self,
        tau_in: float,
        bounds: dict[str, MessageTimeBounds],
    ):
        self.tau_in = tau_in
        self.bounds = dict(bounds)
        self.order = tuple(self.bounds)
        self.index = {name: i for i, name in enumerate(self.order)}
        endpoints = {0.0, tau_in}
        for b in self.bounds.values():
            for start, end in b.windows:
                endpoints.add(start)
                endpoints.add(end)
        boundaries = _dedupe(sorted(endpoints))
        self.intervals = IntervalSet(boundaries, tau_in)
        self.activity = np.zeros(
            (len(self.order), self.intervals.count), dtype=bool
        )
        # ``contains(t_k, t_{k+1})`` per cell, a window at a time: both of
        # its tests are monotone in k (the boundaries ascend), so the
        # intervals a window holds are one run, bisected out of the same
        # floats ``le`` compares.  A NaN end holds none.
        lows = [t + EPS for t in boundaries[:-1]]
        highs = boundaries[1:]
        for row, bound in zip(self.activity, self.bounds.values()):
            for ws, we in bound.windows:
                if not (math.isnan(ws) or math.isnan(we)):
                    first = bisect_left(lows, ws)
                    row[first:bisect_right(highs, we + EPS)] = True

    def active_intervals(self, name: str) -> tuple[int, ...]:
        """Indices of intervals in which a message may be transmitted."""
        return tuple(
            int(k) for k in np.flatnonzero(self.activity[self.index[name]])
        )

    def __eq__(self, other: object) -> bool:
        # tau_in and the per-message bounds determine every derived
        # attribute (order, intervals, activity), so value equality over
        # them is full value equality.  Needed so a schedule loaded from
        # serialization or the cache compares equal to a fresh compile.
        if not isinstance(other, TimeBoundSet):
            return NotImplemented
        return self.tau_in == other.tau_in and self.bounds == other.bounds

    __hash__ = None  # mutable value semantics

    def __repr__(self) -> str:
        return (
            f"<TimeBoundSet {len(self.order)} messages, "
            f"K={self.intervals.count}, tau_in={self.tau_in}>"
        )


def _dedupe(sorted_values: list[float]) -> list[float]:
    """Collapse endpoints closer than EPS (floating-point wrap artifacts)."""
    result = [sorted_values[0]]
    for value in sorted_values[1:]:
        if value - result[-1] > EPS:
            result.append(value)
    return result


def require_sync_margin(margin: float) -> None:
    """Raise :class:`ValueError` unless ``margin`` is a non-negative
    finite time: a bad margin is an input error, not infeasibility."""
    if not (math.isfinite(margin) and margin >= 0):
        raise ValueError(
            f"sync margin must be a non-negative finite time, got {margin}"
        )


def compute_time_bounds(
    timing: TFGTiming,
    tau_in: float,
    routed_messages: list[str] | None = None,
    extra_duration: float = 0.0,
) -> TimeBoundSet:
    """Release/deadline bounds for every (routed) message at period ``tau_in``.

    Parameters
    ----------
    timing:
        The TFG timing; its windowed ASAP schedule supplies the absolute
        source-finish instants.
    tau_in:
        Input period; must satisfy ``tau_in >= tau_c`` (Section 2) and
        ``tau_in >= message window`` (a window longer than the frame would
        self-overlap).
    routed_messages:
        Names of the messages that traverse the network (default: all).
    extra_duration:
        A per-message setup guard added to every transmission requirement;
        models the CP clock-synchronization margin of the paper's
        concluding remarks (:func:`require_sync_margin`).
    """
    require_sync_margin(extra_duration)
    if tau_in < timing.tau_c - EPS:
        raise SchedulingError(
            f"tau_in={tau_in} below tau_c={timing.tau_c}: infinite "
            "accumulation at the slowest task (paper Section 2)"
        )
    window = timing.message_window
    if window > tau_in + EPS:
        raise SchedulingError(
            f"message window {window} exceeds the period {tau_in}; "
            "successive instances of a message would overlap"
        )
    asap = timing.asap_schedule()
    names = (
        [m.name for m in timing.tfg.messages]
        if routed_messages is None
        else list(routed_messages)
    )
    bounds: dict[str, MessageTimeBounds] = {}
    for name in names:
        message = timing.tfg.message(name)
        release = wrap(asap[message.src][1], tau_in)
        duration = timing.xmit_time(name) + extra_duration
        if duration > window + EPS:
            raise SchedulingError(
                f"message {name!r}: transmission requirement {duration} "
                f"(including sync margin) exceeds its window {window}"
            )
        deadline_abs = release + window
        if le(deadline_abs, tau_in):
            deadline = wrap(deadline_abs, tau_in)
            windows: tuple[tuple[float, float], ...] = ((release, deadline_abs),)
            if deadline == 0.0:  # window ends exactly at the frame edge
                deadline = tau_in
        else:
            deadline = deadline_abs - tau_in
            windows = ((0.0, deadline), (release, tau_in))
        bounds[name] = MessageTimeBounds(
            name=name,
            release=release,
            deadline=deadline,
            duration=duration,
            windows=windows,
        )
    return TimeBoundSet(tau_in, bounds)
