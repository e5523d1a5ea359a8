"""Link, spot, and peak utilisation (paper Definitions 5.1 and 5.2).

- **Link utilisation** ``U_j``: total transmission time of the messages
  carried by link ``L_j``, divided by the total length of the intervals in
  which at least one of them is active.  ``U_j <= 1`` is necessary for the
  link to carry its load.
- **Spot utilisation** ``U_jk``: the paper counts the *no-slack* messages
  using ``L_j`` in interval ``A_k`` (two no-slack messages on one spot is
  a hot-spot no schedule can resolve).  We implement the natural
  sharpening: each message contributes its **forced load** in the
  interval, ``max(0, duration - (active_length - |A_k|))`` — the
  transmission time that cannot fit in the message's other active
  intervals.  For a no-slack message the forced load is exactly ``|A_k|``,
  so the sharpened ``U_jk = forced / |A_k|`` coincides with the paper's
  count on no-slack messages while also catching hot-spots built from
  slack messages confined to a common interval (which Def. 5.1's
  link-wide average provably misses — the paper itself notes ``U_j <= 1``
  "does not imply absence of hot-spots").
- **Peak utilisation** ``U``: the maximum link utilisation, with any spot
  violation (``U_jk > 1``) dominating; path assignment minimises it, and
  scheduled routing is attempted only when ``U <= 1``.

:class:`UtilizationState` supports O(path length x K) incremental updates
so the AssignPaths inner loop can evaluate hundreds of candidate reroutes
cheaply.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.assignment import PathAssignment
from repro.core.timebounds import MessageTimeBounds, TimeBoundSet
from repro.topology.base import Link, Topology
from repro.topology.routing import links_on_path
from repro.units import EPS

#: Witness kinds for the peak position.
KIND_LINK = "link"
KIND_SPOT = "spot"


def window_demand(bound: MessageTimeBounds, active_length_within: float) -> float:
    """Transmission time that cannot be moved outside a sub-window.

    Given the total active length of a message's windows that falls
    *inside* some region of the frame, the message must transmit at
    least ``duration - (active_length - within)`` time units there —
    its other windows simply cannot absorb more.  This is the single
    arithmetic fact behind both the sharpened spot utilisation
    (:class:`UtilizationState`) and every Hall-type window-density
    certificate in :mod:`repro.diagnose`.
    """
    return max(0.0, bound.duration - (bound.active_length - active_length_within))


def forced_load_matrix(bounds: TimeBoundSet) -> np.ndarray:
    """``forced[i, k]``: load message ``i`` cannot move out of interval ``k``.

    Vectorised :func:`window_demand` over every (message, interval) pair,
    zeroed where the message is inactive.  Shared by the incremental
    :class:`UtilizationState` and the ILP reference
    (:func:`repro.solvers.ilp_backend.assignment_gap`) so the two can
    never disagree on what "forced" means.
    """
    lengths = np.asarray(bounds.intervals.lengths)
    durations = np.array([bounds.bounds[m].duration for m in bounds.order])
    active_lengths = bounds.activity @ lengths
    forced = np.maximum(
        0.0,
        durations[:, None] - (active_lengths[:, None] - lengths[None, :]),
    )
    forced[~bounds.activity] = 0.0
    return forced


@dataclass(frozen=True)
class LinkLoad:
    """Static utilisation summary of one link under a message→links map."""

    link: Link
    messages: tuple[str, ...]
    total_time: float       # summed transmission durations
    window_time: float      # union length of the messages' active intervals

    @property
    def utilization(self) -> float:
        """``U_j`` per Definition 5.1 (0 for an unloaded link)."""
        if self.window_time <= EPS:
            return 0.0
        return self.total_time / self.window_time


def link_loads(
    bounds: TimeBoundSet,
    message_links: Mapping[str, Iterable[Link]],
) -> dict[Link, LinkLoad]:
    """Per-link utilisation of an arbitrary ``message → links`` mapping.

    The mapping need not be a full path assignment — the static
    diagnoser feeds it the *forced* links only — but the arithmetic
    (durations, activity windows) is identical to what
    :class:`UtilizationState` maintains incrementally.
    """
    lengths = np.asarray(bounds.intervals.lengths)
    activity = bounds.activity
    per_link: dict[Link, list[int]] = {}
    for name, links in message_links.items():
        for link in links:
            per_link.setdefault(link, []).append(bounds.index[name])
    loads: dict[Link, LinkLoad] = {}
    for link, rows in sorted(per_link.items()):
        names = tuple(bounds.order[i] for i in rows)
        total = float(sum(bounds.bounds[n].duration for n in names))
        any_active = activity[rows].any(axis=0)
        window = float(lengths[any_active].sum())
        loads[link] = LinkLoad(
            link=link,
            messages=names,
            total_time=total,
            window_time=window,
        )
    return loads


@dataclass(frozen=True)
class PeakWitness:
    """Where the peak utilisation occurs: a link, or a (link, interval)."""

    value: float
    kind: str
    link: Link
    interval: int  # -1 for link-kind witnesses

    def position(self) -> tuple[str, Link, int]:
        """Hashable location used by the heuristic's repositioning rule."""
        return (self.kind, self.link, self.interval)

    def describe(self) -> str:
        if self.kind == KIND_SPOT:
            return f"spot (link {self.link}, interval {self.interval})"
        return f"link {self.link}"


class CandidateFrame:
    """What AssignPaths reads that no attempt, restart or candidate changes.

    One per compile (``CompilationContext.frame``, built by the first
    ``AssignPathsStage`` run), shared by every :class:`UtilizationState`,
    :class:`~repro.core.assignment.PathAssignment` and utilisation
    report of that compile: the sorted link list and its index, the
    per-message constants (durations, forced loads, active-interval
    ids), the candidate pools of ``endpoints`` (enumerated here, in
    endpoint order — the order the heuristic's RNG consumes them in),
    and three memos: link tuple → row ids, validated path → links, and
    message → its (pool x link) 0/1 incidence.  It holds nothing that
    depends on the current assignment, so sharing it moves no float.
    """

    def __init__(
        self,
        bounds: TimeBoundSet,
        topology: Topology,
        endpoints: Mapping[str, tuple[int, int]] | None = None,
        max_paths: int | None = None,
    ):
        self.link_list = sorted(topology.links)
        self.link_index: dict[Link, int] = {
            link: j for j, link in enumerate(self.link_list)
        }
        self.lengths = np.asarray(bounds.intervals.lengths)
        self.durations = np.array(
            [bounds.bounds[m].duration for m in bounds.order]
        )
        # forced[i, k]: transmission time message i cannot move out of
        # interval k (its duration minus the capacity of its other active
        # intervals); zero when inactive in k.
        self.forced = forced_load_matrix(bounds)
        # Per-message active interval ids (paths are simple, so a
        # message's links are distinct — fancy indexing is safe).
        self.active_ks = [np.flatnonzero(row) for row in bounds.activity]
        self.pools: dict[str, list[list[int]]] = {
            name: topology.minimal_path_pool(src, dst, max_paths)
            for name, (src, dst) in (endpoints or {}).items()
        }
        #: ``tuple(path) -> links`` of paths already validated on
        #: ``topology`` (see ``PathAssignment.set_path``).
        self.validated: dict[tuple[int, ...], tuple[Link, ...]] = {}
        self._rows: dict[
            tuple[Link, ...], tuple[np.ndarray, np.ndarray]
        ] = {}
        self._incidence: dict[str, np.ndarray] = {}

    def link_rows(
        self, links: tuple[Link, ...]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Row ids of a path's links, flat and as a column (memoised)."""
        pair = self._rows.get(links)
        if pair is None:
            rows = np.fromiter(
                (self.link_index[link] for link in links),
                dtype=np.int64,
                count=len(links),
            )
            pair = self._rows[links] = (rows, rows[:, None])
        return pair

    def incidence_of(self, paths: Sequence[Sequence[int]]) -> np.ndarray:
        """``(len(paths) x L)`` int8: 1 where a path crosses a link."""
        incidence = np.zeros((len(paths), len(self.link_list)), dtype=np.int8)
        for c, path in enumerate(paths):
            incidence[c, self.link_rows(links_on_path(path))[0]] = 1
        return incidence

    def incidence(self, name: str) -> np.ndarray:
        """:meth:`incidence_of` a message's candidate pool (built once)."""
        incidence = self._incidence.get(name)
        if incidence is None:
            incidence = self._incidence[name] = self.incidence_of(
                self.pools[name]
            )
        return incidence


class UtilizationState:
    """Incrementally maintained utilisation of an evolving assignment.

    The assignment-independent constants come from a
    :class:`CandidateFrame`; a state handed none builds a private one.
    """

    def __init__(
        self,
        bounds: TimeBoundSet,
        assignment: PathAssignment,
        frame: CandidateFrame | None = None,
    ):
        if frame is None:
            frame = CandidateFrame(bounds, assignment.topology)
        self.bounds = bounds
        self.assignment = assignment
        self.frame = frame
        self.link_index = frame.link_index
        self.link_list = frame.link_list
        self.lengths = frame.lengths
        self.durations = frame.durations
        self.forced = frame.forced
        K = bounds.intervals.count
        L = len(frame.link_list)
        # Per-link state.  window_time and spot_max are incremental
        # caches: recomputing them from the (L x K) matrices on every
        # candidate-reroute evaluation dominated AssignPaths' cost on
        # machines beyond 64 nodes.
        self.total_time = np.zeros(L)            # sum of durations on link
        self.active_count = np.zeros((L, K), dtype=np.int32)
        self.spot_load = np.zeros((L, K))        # summed forced load
        self.window_time = np.zeros(L)           # sum of len_k with count>0
        self.spot_max = np.zeros(L)              # max_k spot_load/len_k
        for name in assignment.messages:
            self._apply(name, assignment.links(name), sign=+1)

    # -- incremental maintenance ----------------------------------------

    def _apply(self, name: str, links: tuple[Link, ...], sign: int) -> None:
        if not links:
            return
        i = self.bounds.index[name]
        js, js_column = self.frame.link_rows(links)
        ks = self.frame.active_ks[i]
        self.total_time[js] += sign * self.durations[i]
        block = self.active_count[js_column, ks] + sign
        self.active_count[js_column, ks] = block
        # Window time changes where the count crosses zero.
        if sign > 0:
            self.window_time[js] += (
                self.lengths[ks] * (block == 1)
            ).sum(axis=1)
        else:
            self.window_time[js] -= (
                self.lengths[ks] * (block == 0)
            ).sum(axis=1)
        self.spot_load[js] += sign * self.forced[i]
        self.spot_max[js] = (
            self.spot_load[js] / self.lengths[None, :]
        ).max(axis=1)

    def reroute(self, name: str, new_path: list[int]) -> None:
        """Move a message to a new path, updating utilisation state."""
        self._apply(name, self.assignment.links(name), sign=-1)
        self.assignment.set_path(name, new_path)
        self._apply(name, self.assignment.links(name), sign=+1)

    # -- utilisation queries ------------------------------------------------

    def link_utilizations(self) -> np.ndarray:
        """``U_j`` per link (0 where the link carries no message)."""
        result = np.zeros_like(self.total_time)
        loaded = self.window_time > EPS
        result[loaded] = self.total_time[loaded] / self.window_time[loaded]
        return result

    def spot_ratios(self) -> np.ndarray:
        """Sharpened ``U_jk``: summed forced load over interval length."""
        return self.spot_load / self.lengths[None, :]

    def peak(self) -> PeakWitness:
        """The peak utilisation ``U`` and its location.

        Spot *violations* (ratio > 1, unresolvable hot-spots) dominate the
        link average when at least as large; a spot witness names the
        interval, giving the heuristic a sharper reroute candidate set.
        Otherwise the peak is the largest link utilisation — the quantity
        the paper's Figs. 5/6 plot.
        """
        return self._peak_from(
            self.total_time,
            self.window_time,
            self.spot_max,
            lambda j: self.spot_load[j],
        )

    def _peak_from(self, total_time, window_time, spot_max, spot_row):
        """Peak witness over (possibly hypothetical) per-link arrays."""
        link_u = np.zeros_like(total_time)
        loaded = window_time > EPS
        link_u[loaded] = total_time[loaded] / window_time[loaded]
        j_link = int(np.argmax(link_u))
        best_link = float(link_u[j_link])
        j_spot = int(np.argmax(spot_max))
        best_spot = float(spot_max[j_spot])
        if best_spot >= best_link - EPS and best_spot > 1.0 + EPS:
            k_spot = int(np.argmax(spot_row(j_spot) / self.lengths))
            return PeakWitness(
                best_spot, KIND_SPOT, self.link_list[j_spot], k_spot
            )
        return PeakWitness(best_link, KIND_LINK, self.link_list[j_link], -1)

    def evaluate_pool(self, name: str) -> list[tuple[list[int], PeakWitness]]:
        """``(path, peak if taken)`` for every path of ``name``'s candidate
        pool except the one it is on — the AssignPaths inner step."""
        pool = self.frame.pools[name]
        current = list(self.assignment.path(name))
        others = [c for c, path in enumerate(pool) if path != current]
        witnesses = self._evaluate(name, self.frame.incidence(name)[others])
        return [(pool[c], w) for c, w in zip(others, witnesses)]

    def _evaluate(self, name: str, incidence: np.ndarray) -> list[PeakWitness]:
        """The one numeric core of candidate evaluation.

        ``incidence`` is the (C x L) 0/1 link incidence of C candidate
        paths; evaluating them together turns per-candidate bookkeeping
        into a handful of (C x L) array operations.  Pure: the candidate
        per-link quantities are computed from signed link deltas against
        the current state, which is never touched.
        """
        C = len(incidence)
        if not C:
            return []
        i = self.bounds.index[name]
        # delta[c, j] is -1 when candidate c leaves link j, +1 when it
        # newly crosses it, 0 otherwise (links shared by both paths).
        delta = incidence - self.frame.incidence_of(
            [self.assignment.path(name)]
        )
        added = delta > 0
        removed = delta < 0

        # Adding/removing one message changes each link's window time and
        # spot maximum in only two possible ways, so both variants are
        # precomputed per link and selected by the delta sign.
        ks = self.frame.active_ks[i]
        lengths_k = self.lengths[ks]
        counts_k = self.active_count[:, ks]
        gained_if_added = (lengths_k[None, :] * (counts_k == 0)).sum(axis=1)
        lost_if_removed = (lengths_k[None, :] * (counts_k == 1)).sum(axis=1)
        ratios = self.lengths[None, :]
        spot_if_added = (
            (self.spot_load + self.forced[i][None, :]) / ratios
        ).max(axis=1)
        spot_if_removed = (
            (self.spot_load - self.forced[i][None, :]) / ratios
        ).max(axis=1)

        total = self.total_time[None, :] + delta * self.durations[i]
        window = (
            self.window_time[None, :]
            + np.where(added, gained_if_added[None, :], 0.0)
            - np.where(removed, lost_if_removed[None, :], 0.0)
        )
        spot_max = np.where(
            added,
            spot_if_added[None, :],
            np.where(removed, spot_if_removed[None, :], self.spot_max[None, :]),
        )

        link_u = np.zeros_like(total)
        loaded = window > EPS
        np.divide(total, window, out=link_u, where=loaded)
        j_link = link_u.argmax(axis=1)
        best_link = link_u[np.arange(C), j_link]
        j_spot = spot_max.argmax(axis=1)
        best_spot = spot_max[np.arange(C), j_spot]

        witnesses: list[PeakWitness] = []
        for c in range(C):
            if (
                best_spot[c] >= best_link[c] - EPS
                and best_spot[c] > 1.0 + EPS
            ):
                j = int(j_spot[c])
                row = self.spot_load[j] + delta[c, j] * self.forced[i]
                k_spot = int(np.argmax(row / self.lengths))
                witnesses.append(
                    PeakWitness(
                        float(best_spot[c]), KIND_SPOT, self.link_list[j],
                        k_spot,
                    )
                )
            else:
                witnesses.append(
                    PeakWitness(
                        float(best_link[c]), KIND_LINK,
                        self.link_list[int(j_link[c])], -1,
                    )
                )
        return witnesses


@dataclass(frozen=True)
class UtilizationReport:
    """Frozen summary of an assignment's utilisation."""

    peak: float
    witness_kind: str
    witness_link: Link
    witness_interval: int
    link_utilizations: dict[Link, float]
    max_spot: float

    @property
    def feasible(self) -> bool:
        """``U <= 1`` and no spot violation: scheduled routing may be
        attempted (Section 5.1)."""
        return self.peak <= 1.0 + EPS and self.max_spot <= 1.0 + EPS


def utilization_report(
    bounds: TimeBoundSet,
    assignment: PathAssignment,
    frame: CandidateFrame | None = None,
) -> UtilizationReport:
    """Compute the full utilisation report for a fixed assignment."""
    state = UtilizationState(bounds, assignment, frame)
    witness = state.peak()
    link_u = state.link_utilizations()
    per_link = {
        link: float(link_u[j])
        for link, j in state.link_index.items()
        if link_u[j] > EPS
    }
    ratios = state.spot_ratios()
    return UtilizationReport(
        peak=witness.value,
        witness_kind=witness.kind,
        witness_link=witness.link,
        witness_interval=witness.interval,
        link_utilizations=per_link,
        max_spot=float(ratios.max()) if ratios.size else 0.0,
    )
