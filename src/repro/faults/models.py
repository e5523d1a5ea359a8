"""Fault models: link/node failures and CP clock drift.

The paper proves scheduled routing contention- and jitter-free on a
*healthy* network; this module describes the ways the network stops
being healthy, so the rest of :mod:`repro.faults` can measure what the
guarantee degrades to and how fast it can be restored.

Three fault classes are modelled:

- **link faults** — a half-duplex channel goes down at ``start``; either
  *transient* (comes back after ``duration``) or *permanent*
  (``duration is None``; the repair engine must route around it),
- **node faults** — a node's communication processor dies, taking every
  incident link down (the application processor is not modelled as
  failing: a dead AP kills the workload, not the network, and is out of
  scope for *communication* scheduling),
- **clock drift** — a CP's clock runs offset from the global time base,
  shifting every transmission its node sources; drift beyond the
  compiler's ``sync_margin`` manifests as contention or missed
  deadlines.

Traces are plain frozen dataclasses, generated deterministically per
seed, so SR and WR runs can be subjected to *identical* fault histories.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.topology.base import Link, Topology, link_between


def _check_outage(start: float, duration: float | None) -> None:
    """The rule every outage keeps: it starts at a finite instant >= 0
    and lasts a finite time > 0, or (``None``) forever."""
    if not 0.0 <= start < math.inf:
        raise ReproError(f"fault start must be finite and >= 0, got {start}")
    if duration is not None and not 0.0 < duration < math.inf:
        raise ReproError(
            "fault duration must be None (permanent) or finite and > 0, "
            f"got {duration}"
        )


@dataclass(frozen=True)
class LinkFault:
    """One link outage.

    Attributes
    ----------
    link:
        The failed (undirected, canonical) link.
    start:
        Absolute simulation time the outage begins.
    duration:
        Outage length; ``None`` marks a permanent failure.
    """

    link: Link
    start: float
    duration: float | None = None

    def __post_init__(self) -> None:
        _check_outage(self.start, self.duration)

    @property
    def permanent(self) -> bool:
        return self.duration is None

    @property
    def end(self) -> float:
        """Absolute restore instant (``inf`` for permanent faults)."""
        return float("inf") if self.duration is None else self.start + self.duration


@dataclass(frozen=True)
class NodeFault:
    """A communication-processor failure: every incident link goes down."""

    node: int
    start: float
    duration: float | None = None

    def __post_init__(self) -> None:
        _check_outage(self.start, self.duration)

    @property
    def permanent(self) -> bool:
        return self.duration is None

    def link_faults(self, topology: Topology) -> tuple[LinkFault, ...]:
        """The equivalent per-link outages on a concrete topology."""
        return tuple(
            LinkFault(link_between(self.node, n), self.start, self.duration)
            for n in topology.neighbors(self.node)
        )


@dataclass(frozen=True)
class ClockDrift:
    """A constant clock offset at one node's CP, in microseconds.

    Positive offset = the node's clock runs late, so its switching
    commands (and hence the transmissions it sources) execute ``offset``
    after their nominal instants.
    """

    node: int
    offset: float


@dataclass(frozen=True)
class FaultTrace:
    """A deterministic fault history for one run.

    ``link_faults``/``node_faults``/``drifts`` are applied together; node
    faults expand to link faults via :meth:`all_link_faults` when a
    concrete topology is known.
    """

    link_faults: tuple[LinkFault, ...] = ()
    node_faults: tuple[NodeFault, ...] = ()
    drifts: tuple[ClockDrift, ...] = ()
    seed: int | None = None
    _drift_index: dict[int, float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        index: dict[int, float] = {}
        for drift in self.drifts:
            index[drift.node] = index.get(drift.node, 0.0) + drift.offset
        object.__setattr__(self, "_drift_index", index)

    @property
    def empty(self) -> bool:
        return not (self.link_faults or self.node_faults or self.drifts)

    def all_link_faults(self, topology: Topology) -> tuple[LinkFault, ...]:
        """Every link outage, with node faults expanded, sorted by start."""
        faults = list(self.link_faults)
        for node_fault in self.node_faults:
            faults.extend(node_fault.link_faults(topology))
        return tuple(sorted(faults, key=lambda f: (f.start, f.link)))

    def permanent_failed_links(self, topology: Topology) -> frozenset[Link]:
        """Links that never come back — the repair engine's input."""
        return frozenset(
            f.link for f in self.all_link_faults(topology) if f.permanent
        )

    def drift_of(self, node: int) -> float:
        """Clock offset of a node (0 for undrifted nodes)."""
        return self._drift_index.get(node, 0.0)

    def describe(self) -> str:
        parts = []
        for f in self.link_faults:
            kind = "permanent" if f.permanent else f"for {f.duration:g}us"
            parts.append(f"link {f.link} down at t={f.start:g} ({kind})")
        for f in self.node_faults:
            kind = "permanent" if f.permanent else f"for {f.duration:g}us"
            parts.append(f"node {f.node} down at t={f.start:g} ({kind})")
        for d in self.drifts:
            parts.append(f"node {d.node} clock drift {d.offset:+g}us")
        return "; ".join(parts) if parts else "no faults"


def generate_fault_trace(
    topology: Topology,
    seed: int = 0,
    n_link_faults: int = 1,
    n_drifts: int = 0,
    horizon: float = 100.0,
    transient_fraction: float = 0.0,
    candidate_links: tuple[Link, ...] | None = None,
) -> FaultTrace:
    """Seeded deterministic fault-trace generation.

    Parameters
    ----------
    topology:
        The machine the faults strike.
    seed:
        Seeds every random choice; identical seeds yield identical traces
        (the property the SR-vs-WR survivability comparison relies on).
    n_link_faults, n_drifts:
        How many link faults and clock drifts to draw (node faults are
        built by hand: :class:`NodeFault`).
    horizon:
        Fault start times are drawn uniformly from ``[0, horizon)``.
    transient_fraction:
        Probability a drawn link fault is transient rather than
        permanent; outages are exponential with mean 10 us.  Drift
        offsets are uniform in ``[-1, 1]`` us.
    candidate_links:
        Restrict link faults to this pool (e.g. the links a compiled
        schedule actually uses, so every drawn fault is *felt*); defaults
        to all links.
    """
    rng = random.Random(seed)
    pool = list(candidate_links) if candidate_links else list(topology.links)
    if n_link_faults > len(pool):
        raise ReproError(
            f"cannot draw {n_link_faults} distinct link faults from "
            f"{len(pool)} candidate links"
        )
    link_faults = []
    for link in rng.sample(pool, n_link_faults):
        start = rng.uniform(0.0, horizon)
        duration = (
            rng.expovariate(1.0 / 10.0)
            if rng.random() < transient_fraction
            else None
        )
        link_faults.append(LinkFault(link, start, duration))
    drifts = tuple(
        ClockDrift(node, rng.uniform(-1.0, 1.0))
        for node in (
            rng.sample(range(topology.num_nodes), n_drifts) if n_drifts else ()
        )
    )
    return FaultTrace(
        link_faults=tuple(sorted(link_faults, key=lambda f: (f.start, f.link))),
        drifts=drifts,
        seed=seed,
    )
