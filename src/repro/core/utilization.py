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
cheaply: a candidate gets hypothetical values only on the links it or
the current path crosses, and every other link keeps its current one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

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
    forced: np.ndarray = np.maximum(
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


class CandidateTable(NamedTuple):
    """One candidate pool of a topology: the minimal ``src -> dst`` paths
    (capped at ``max_paths``, in enumeration order — the order the
    heuristic's RNG consumes them in) and the links they cross."""

    paths: tuple[tuple[int, ...], ...]
    touched: "_Touched"


class TopologyTables:
    """What AssignPaths reads that depends on one topology object alone.

    The sorted link list and its index, one :class:`CandidateTable` per
    ``(src, dst)`` -- the one for the ``max_paths`` last asked of that
    pair -- the memo of paths validated on the topology
    (``tuple(path) -> links``, see ``PathAssignment.set_path``) and the
    link index rows of each link tuple asked for (:meth:`rows`).  One
    per object (:func:`topology_tables`), shared by every compile on it:
    nothing here depends on an instance, its bounds or its load, the
    tables and the link index are immutable, and the validated memo only
    gains paths that passed every check.  A caller that cycles caps pays
    a re-enumeration per change of cap, never another table.
    """

    def __init__(self, topology: Topology) -> None:
        self.link_list: tuple[Link, ...] = tuple(sorted(topology.links))
        self.link_index: Mapping[Link, int] = MappingProxyType(
            {link: j for j, link in enumerate(self.link_list)}
        )
        self.validated: dict[tuple[int, ...], tuple[Link, ...]] = {}
        self._rows: dict[tuple[Link, ...], np.ndarray] = {}
        #: ``(src, dst) -> (max_paths, table)``.
        self._tables: dict[
            tuple[int, int], tuple[int | None, CandidateTable]
        ] = {}

    def table(
        self, topology: Topology, src: int, dst: int, max_paths: int | None
    ) -> CandidateTable:
        """The candidate table of ``src -> dst`` capped at ``max_paths``
        on ``topology`` (this object's owner), enumerated when the pair
        is new or was last asked under another cap."""
        held = self._tables.get((src, dst))
        if held is not None and held[0] == max_paths:
            return held[1]
        paths = tuple(
            tuple(path)
            for path in topology.minimal_path_pool(src, dst, max_paths)
        )
        table = CandidateTable(paths, self.touched_by(paths))
        self._tables[(src, dst)] = (max_paths, table)
        return table

    def rows(self, links: tuple[Link, ...]) -> np.ndarray:
        """The (read-only) link index rows of ``links``, in order."""
        rows = self._rows.get(links)
        if rows is None:
            rows = self._rows[links] = np.fromiter(
                (self.link_index[link] for link in links),
                dtype=np.int64,
                count=len(links),
            )
            rows.setflags(write=False)
        return rows

    def touched_by(self, paths: Sequence[Sequence[int]]) -> "_Touched":
        """The links any of ``paths`` crosses, and how a move between
        two of them leaves each (see :class:`_Touched`)."""
        incidence = np.zeros((len(paths), len(self.link_list)), np.int8)
        for c, path in enumerate(paths):
            incidence[
                c, [self.link_index[link] for link in links_on_path(path)]
            ] = 1
        rows = np.flatnonzero(incidence.any(axis=0))
        on = incidence[:, rows].astype(np.int32)
        touched = _Touched(
            rows,
            frozenset(rows.tolist()),
            on * rows.size + np.arange(rows.size, dtype=np.int32),
            (1 - on) * rows.size,
        )
        for array in (touched.rows, touched.enter, touched.leave):
            array.setflags(write=False)
        return touched


def topology_tables(topology: Topology) -> TopologyTables:
    """``topology``'s :class:`TopologyTables`, built on first use."""
    tables = topology.candidate_tables
    if tables is None:
        tables = topology.candidate_tables = TopologyTables(topology)
    return tables


class CandidateFrame:
    """What AssignPaths reads that no attempt, restart or candidate changes.

    One per compile (``CompilationContext.frame``, built by the first
    ``AssignPathsStage`` run), shared by every :class:`UtilizationState`,
    :class:`~repro.core.assignment.PathAssignment` and utilisation
    report of that compile: the per-message constants (durations, forced
    loads, active-interval ids), the :class:`CandidateTable` of each of
    ``endpoints`` (in endpoint order).  The link index and its rows per
    link tuple, the tables and the validated-path memo are the
    topology's own (:class:`TopologyTables`),
    so a later compile on the same topology object enumerates no pool
    and validates no path again.  It holds nothing that depends on the
    current assignment, so sharing it moves no float.
    """

    def __init__(
        self,
        bounds: TimeBoundSet,
        topology: Topology,
        endpoints: Mapping[str, tuple[int, int]] | None = None,
        max_paths: int | None = None,
    ) -> None:
        self.shared = shared = topology_tables(topology)
        self.link_list = shared.link_list
        self.link_index = shared.link_index
        #: ``tuple(path) -> links`` of paths already validated on
        #: ``topology`` (see ``PathAssignment.set_path``).
        self.validated = shared.validated
        self.lengths = np.asarray(bounds.intervals.lengths)
        self.durations = np.array(
            [bounds.bounds[m].duration for m in bounds.order]
        )
        # forced[i, k]: transmission time message i cannot move out of
        # interval k (its duration minus the capacity of its other active
        # intervals); zero when inactive in k.
        self.forced = forced_load_matrix(bounds)
        # Per-message active interval ids.
        self.active_ks = [np.flatnonzero(row) for row in bounds.activity]
        self.tables: dict[str, CandidateTable] = {
            name: shared.table(topology, src, dst, max_paths)
            for name, (src, dst) in (endpoints or {}).items()
        }
        self.pools: dict[str, tuple[tuple[int, ...], ...]] = {
            name: table.paths for name, table in self.tables.items()
        }


class _Touched(NamedTuple):
    """The links a set of paths crosses: ascending rows, and as a set.

    A move from path ``a`` to path ``b`` leaves touched link ``t`` in
    state ``delta + 1`` — 0 the message leaves it, 1 as it was, 2 it
    newly crosses it — and ``enter[b] + leave[a]`` is the flat index
    ``state * |rows| + t`` of those states, per link.
    """

    rows: np.ndarray
    row_set: frozenset[int]
    enter: np.ndarray
    leave: np.ndarray


#: Per link, the three states a move can leave it in (``_Touched``).
#: ``_SIGNS`` scales the message's own load into each state;
#: ``_CROSSING`` is the interval count at which that state moves the
#: count across zero (never, for the unchanged state).
_SIGNS = np.array([[-1.0], [0.0], [1.0]])
_CROSSING = np.array([[[1]], [[-1]], [[0]]])


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
    ) -> None:
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
        self._ranking: list[tuple[list[float], list[int]]] | None = None
        self._accumulate(
            [(name, assignment.links(name)) for name in assignment.messages],
            sign=+1,
        )

    # -- incremental maintenance ----------------------------------------

    def _accumulate(
        self, placed: Sequence[tuple[str, tuple[Link, ...]]], sign: int
    ) -> None:
        """Add (``sign=+1``) or remove (``-1``) messages on their links.

        The one way the arrays change: the constructor places every
        message in one call, :meth:`reroute` removes one and adds it
        back.  Every per-link float is accumulated in ``placed`` order by
        ``np.add.at`` (unbuffered, in index order), so placing all
        messages at once leaves the arrays bit-identical to placing them
        one by one.  A message's window increment on a link is the sum,
        over its own active intervals, of the lengths whose count it
        moves across zero, summed as one row of a ``(links x own
        intervals)`` block — a row sum that does not depend on how many
        rows the block has.  ``spot_max`` is recomputed once, at the end.

        One placed message (either half of a reroute) crosses each of its
        links once, so no index repeats: the arrays change in place, by
        the same additions in the same order, and no count needs
        ``_earlier_repeats``.
        """
        frame = self.frame
        ids: list[int] = []
        rows: list[np.ndarray] = []
        for name, links in placed:
            if links:
                ids.append(self.bounds.index[name])
                rows.append(frame.shared.rows(links))
        if not ids:
            return
        if len(placed) == 1:
            i, js = ids[0], rows[0]
            ks = frame.active_ks[i]
            self.total_time[js] += sign * self.durations[i]
            spot = self.spot_load[js] + sign * self.forced[i]
            self.spot_load[js] = spot
            block = (js[:, None], ks)
            after = self.active_count[block] + sign
            self.active_count[block] = after
            crossed = self.lengths[ks] * (after == (1 if sign > 0 else 0))
            self.window_time[js] += sign * crossed.sum(axis=1)
            self.spot_max[js] = (spot / self.lengths[None, :]).max(axis=1)
            self._ranking = None
            return
        sizes = [r.size for r in rows]
        js = np.concatenate(rows)
        msg = np.repeat(ids, sizes)
        np.add.at(self.total_time, js, sign * self.durations[msg])
        # The flat ``row * K + k`` ids of every (link, interval) cell of
        # the placed messages, link-major.
        K = self.lengths.size
        span = (js[:, None] * K + np.arange(K)).ravel()
        np.add.at(
            self.spot_load.reshape(-1), span,
            (sign * self.forced[msg]).ravel(),
        )
        # The cells the placed messages are active in, link-major and
        # interval-ascending, and the count each placement leaves there.
        active = span[self.bounds.activity[msg].ravel()]
        counts = self.active_count.reshape(-1)
        earlier: np.ndarray | int = (
            _earlier_repeats(active) if len(ids) > 1 else 0
        )
        after = counts[active] + sign * (earlier + 1)
        np.add.at(counts, active, np.int32(sign))
        crossed = self.lengths[active % self.lengths.size] * (
            after == (1 if sign > 0 else 0)
        )
        widths = [frame.active_ks[i].size for i in ids]
        if len(set(widths)) == 1:
            increment = crossed.reshape(js.size, widths[0]).sum(axis=1)
        else:
            pair_width = np.repeat(widths, sizes)
            increment = np.empty(js.size)
            for width in set(widths):
                same = pair_width == width
                increment[same] = crossed[
                    np.repeat(same, pair_width)
                ].reshape(-1, width).sum(axis=1)
        np.add.at(self.window_time, js, sign * increment)
        self.spot_max[js] = (
            self.spot_load[js] / self.lengths[None, :]
        ).max(axis=1)
        self._ranking = None

    def reroute(self, name: str, new_path: Sequence[int]) -> None:
        """Move a message to a new path, updating utilisation state."""
        self._accumulate([(name, self.assignment.links(name))], sign=-1)
        self.assignment.set_path(name, new_path)
        self._accumulate([(name, self.assignment.links(name))], sign=+1)

    # -- utilisation queries ------------------------------------------------

    def link_utilizations(self) -> np.ndarray:
        """``U_j`` per link (0 where the link carries no message)."""
        result = np.zeros_like(self.total_time)
        loaded = self.window_time > EPS
        result[loaded] = self.total_time[loaded] / self.window_time[loaded]
        return result

    def spot_ratios(self) -> np.ndarray:
        """Sharpened ``U_jk``: summed forced load over interval length."""
        ratios: np.ndarray = self.spot_load / self.lengths[None, :]
        return ratios

    def _ranked(self) -> list[tuple[list[float], list[int]]]:
        """Link ``U`` and spot maxima of the current state, each with the
        link rows in descending order, ties by ascending row (so the
        first row is the one ``np.argmax`` picks).  Built once per
        change; until the next, every evaluation reads the links its
        candidates leave untouched here."""
        if self._ranking is None:
            self._ranking = [
                (values.tolist(), np.argsort(-values, kind="stable").tolist())
                for values in (self.link_utilizations(), self.spot_max)
            ]
        return self._ranking

    def peak(self) -> PeakWitness:
        """The peak utilisation ``U`` and its location.

        Spot *violations* (ratio > 1, unresolvable hot-spots) dominate the
        link average when at least as large; a spot witness names the
        interval, giving the heuristic a sharper reroute candidate set.
        Otherwise the peak is the largest link utilisation — the quantity
        the paper's Figs. 5/6 plot.
        """
        (link_u, link_order), (spot_max, spot_order) = self._ranked()
        j_link, j_spot = link_order[0], spot_order[0]
        return self._witness(
            link_u[j_link], j_link, spot_max[j_spot], j_spot,
            lambda: self.spot_load[j_spot],
        )

    def _witness(
        self,
        best_link: float,
        j_link: int,
        best_spot: float,
        j_spot: int,
        spot_row: Callable[[], np.ndarray],
    ) -> PeakWitness:
        """Peak witness from the link and spot maxima and their rows."""
        if best_spot >= best_link - EPS and best_spot > 1.0 + EPS:
            k_spot = int(np.argmax(spot_row() / self.lengths))
            return PeakWitness(
                best_spot, KIND_SPOT, self.link_list[j_spot], k_spot
            )
        return PeakWitness(best_link, KIND_LINK, self.link_list[j_link], -1)

    def evaluate_pool(
        self, name: str
    ) -> list[tuple[tuple[int, ...], PeakWitness]]:
        """``(path, peak if taken)`` for every path of ``name``'s candidate
        pool except the one it is on — the AssignPaths inner step."""
        pool, touched = self.frame.tables[name]
        path = self.assignment.path(name)
        try:
            on = pool.index(path)
        except ValueError:  # a path off the pool: its links count too
            touched = self.frame.shared.touched_by(pool + (path,))
            on = len(pool)
        others = [c for c in range(len(pool)) if c != on]
        if not others:
            return []
        picks = touched.enter[others] + touched.leave[on]
        witnesses = self._evaluate(name, touched, picks)
        return [(pool[c], w) for c, w in zip(others, witnesses)]

    def _evaluate(
        self, name: str, touched: _Touched, picks: np.ndarray
    ) -> list[PeakWitness]:
        """The one numeric core of candidate evaluation.

        Only the links in ``touched.rows`` get hypothetical values, and
        each can be in just three states, so the per-link arithmetic is
        a handful of ``(3 x |rows|)`` operations, and ``picks`` (one row
        per candidate, see :class:`_Touched`) selects each candidate's
        state per link.  Every other link keeps its current value, so
        its maximum comes from :meth:`_ranked`; the two maxima meet under
        ``np.argmax``'s rule (the larger value, the lower row on a tie).
        Pure: the state is never touched.
        """
        i = self.bounds.index[name]
        rows = touched.rows
        ks = self.frame.active_ks[i]
        counts_k = self.active_count[rows[:, None], ks]
        # Window lost if removed / gained if added, per link.
        crossing = (
            self.lengths[ks] * (counts_k[None, :, :] == _CROSSING)
        ).sum(axis=2)
        window = self.window_time[rows] + _SIGNS * crossing
        total = self.total_time[rows] + self.durations[i] * _SIGNS
        link_u = np.zeros((3, rows.size))
        np.divide(total, window, out=link_u, where=window > EPS)
        forced = self.forced[i]
        spot = (
            (self.spot_load[rows][None, :, :] + _SIGNS[:, :, None] * forced)
            / self.lengths
        ).max(axis=2)
        # chosen[0]: link U, chosen[1]: spot maximum, per move and link.
        chosen = np.take(
            np.concatenate((link_u, spot)).reshape(2, -1), picks, axis=1
        )
        (best_links, best_spots) = chosen.max(axis=2).tolist()
        (j_links, j_spots) = rows[chosen.argmax(axis=2)].tolist()

        other_link, other_spot = (
            _untouched_max(values, order, touched.row_set)
            for values, order in self._ranked()
        )
        witnesses: list[PeakWitness] = []
        for c in range(len(picks)):
            best_link, j_link = _first_max(
                (best_links[c], j_links[c]), other_link
            )
            best_spot, j_spot = _first_max(
                (best_spots[c], j_spots[c]), other_spot
            )
            witnesses.append(self._witness(
                best_link, j_link, best_spot, j_spot,
                lambda c=c, j=j_spot: self._spot_row_if(
                    j, rows, picks[c], forced
                ),
            ))
        return witnesses

    def _spot_row_if(
        self, j: int, rows: np.ndarray, picks: np.ndarray, forced: np.ndarray
    ) -> np.ndarray:
        """Link ``j``'s spot loads after the move with these ``picks``."""
        row: np.ndarray = self.spot_load[j]
        t = int(np.searchsorted(rows, j))
        if t < rows.size and rows[t] == j:
            row = row + np.int8(picks[t] // rows.size - 1) * forced
        return row


def _earlier_repeats(values: np.ndarray) -> np.ndarray:
    """Per entry, how many earlier entries hold the same value."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    runs = np.diff(np.r_[starts, ordered.size])
    earlier = np.empty(values.size, dtype=np.int64)
    earlier[order] = np.arange(values.size) - np.repeat(starts, runs)
    return earlier


def _untouched_max(
    values: list[float], order: list[int], touched: set[int]
) -> tuple[float, int]:
    """The first row of ``order`` off ``touched`` and its value
    (``(-inf, -1)`` when every link is touched)."""
    for j in order:
        if j not in touched:
            return values[j], j
    return -math.inf, -1


def _first_max(
    first: tuple[float, int], second: tuple[float, int]
) -> tuple[float, int]:
    """``np.argmax``'s pick between two (value, row) maxima."""
    if second[0] > first[0] or (second[0] == first[0] and second[1] < first[1]):
        return second
    return first


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
    loaded = np.flatnonzero(link_u > EPS)
    per_link = dict(zip(
        [state.link_list[j] for j in loaded.tolist()],
        link_u[loaded].tolist(),
    ))
    ratios = state.spot_ratios()
    return UtilizationReport(
        peak=witness.value,
        witness_kind=witness.kind,
        witness_link=witness.link,
        witness_interval=witness.interval,
        link_utilizations=per_link,
        max_spot=float(ratios.max()) if ratios.size else 0.0,
    )
