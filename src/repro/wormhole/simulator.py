"""Discrete-event simulation of task-level pipelining under wormhole routing.

The model follows the paper's own (Section 6): "a channel is considered
occupied if a message captures it"; path setup advances hop by hop with
FCFS arbitration per link; a blocked header keeps every link already
acquired ("M2 continues to use all its links until it is received at the
destination"); after the last link is acquired, the message occupies the
whole path for its transmission time ``m/B`` and then releases it.

Each node has one application processor (AP) executing its tasks
sequentially; a task instance of invocation ``j`` starts once (a) the
instance of invocation ``j-1`` has finished, (b) every incoming message of
invocation ``j`` has been delivered, and (c) for input tasks, the ``j``-th
external input has arrived at ``j * tau_in``.

Deadlock on tori
----------------
With half-duplex links (the paper's channel model) dimension-ordered
wormhole routing is *not* deadlock-free on tori: two messages traversing
one ring in opposite directions hold the link the other wants.  The paper
reports torus results without discussing this, so the simulator adds the
standard abort-and-retry **recovery** (in the spirit of compressionless
routing / Disha): when a hold-and-wait cycle is detected, the blocked
message holding the fewest links releases everything and re-acquires from
scratch.  Recoveries are counted in the run result (``extra
["recoveries"]``); on hypercubes and GHCs, where ascending-dimension
acquisition is provably cycle-free even on shared links, the count is
always zero.  See DESIGN.md, "Substitutions".
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping, NamedTuple

from repro.errors import SimulationError
from repro.mapping.allocation import validate_allocation
from repro.results import INVOCATIONS, WARMUP, RunResult, require_measured
from repro.sim.environment import Environment
from repro.sim.monitor import Monitor
from repro.sim.resources import Claim, Resource
from repro.tfg.analysis import TFGTiming
from repro.topology.base import Link, Topology
from repro.topology.routing import links_on_path, lsd_to_msd_route, validate_path
from repro.trace.tracer import NULL_TRACER, Tracer, TraceRecorder

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.models import FaultTrace

#: Fault-blocked flights are aborted and retried at most this many times
#: each before the run is declared stuck (a deterministic router facing a
#: permanent failure re-requests the same dead link forever; adaptive
#: routing re-plans around it on the first retry).
MAX_FAULT_ABORTS_PER_FLIGHT = 3


class _MessageRow(NamedTuple):  # per run: what a message's flights need
    name: str
    src: int
    dst: int
    xmit: float
    dst_task: str
    track: str


class _TaskRow(NamedTuple):  # per run: what a task's instances need
    ap: Resource
    exec_time: float
    track: str
    out: tuple[_MessageRow, ...]


class _Flight:
    """A message instance in flight: ``route`` to go, ``held``, claiming."""

    __slots__ = ("message", "j", "key", "launched", "route", "held", "link",
                 "claim")
    route: Iterator[Link]
    held: list[tuple[Link, Claim]]
    link: Link
    claim: Claim

    def __init__(self, message: _MessageRow, j: int, launched: float):
        self.message = message
        self.j = j
        self.key = (message.name, j)
        self.launched = launched


_Key = tuple[str, int]  # (message, invocation): one flight
_Waiting = Mapping[_Key, _Flight]
_Links = Mapping[Link, Resource]


class WormholeSimulator:
    """Pipelined TFG execution over wormhole-routed links.

    Parameters
    ----------
    timing:
        Bound TFG timing (execution and transmission times).
    topology:
        The interconnect; links are undirected half-duplex resources.
    allocation:
        Task name -> node id.  Nodes may host several tasks (they share
        the node's AP).
    virtual_channels:
        Number of virtual channels per physical link.  1 (default) is the
        paper's primary model; 2 is the "stricter model" of Section 6 in
        which each physical channel is multiplexed between two virtual
        channels and per-message bandwidth halves.
    """

    #: Circuit semantics: a flight keeps every acquired link until the
    #: whole path is set up (wormhole/cut-through).  The store-and-forward
    #: subclass flips this to hop-at-a-time forwarding.
    hold_entire_path = True

    def __init__(
        self,
        timing: TFGTiming,
        topology: Topology,
        allocation: Mapping[str, int],
        virtual_channels: int = 1,
    ):
        validate_allocation(timing.tfg, topology, allocation, exclusive=False)
        if virtual_channels < 1:
            raise SimulationError(
                f"virtual_channels must be >= 1, got {virtual_channels}"
            )
        self.timing = timing
        self.tfg = timing.tfg
        self.topology = topology
        self.allocation = dict(allocation)
        self.virtual_channels = virtual_channels
        self._route_cache: dict[tuple[int, int], list[int]] = {}
        self._links_cache: dict[tuple[int, int], tuple[Link, ...]] = {}

    # -- routing ---------------------------------------------------------

    def route(self, src_node: int, dst_node: int) -> list[int]:
        """The (cached, validated) LSD->MSD route, the paper's routing."""
        key = (src_node, dst_node)
        path = self._route_cache.get(key)
        if path is None:
            path = lsd_to_msd_route(self.topology, src_node, dst_node)
            validate_path(self.topology, path, src_node, dst_node)
            self._route_cache[key] = path
        return path

    def _flight_links(
        self, links: _Links, src_node: int, dst_node: int
    ) -> Iterator[Link]:
        """A flight attempt's links, one per ``next``: the (cached) route's
        here, re-planned per hop from live link state when adaptive."""
        key = (src_node, dst_node)
        if key not in self._links_cache:
            self._links_cache[key] = links_on_path(self.route(*key))
        return iter(self._links_cache[key])

    # -- simulation ------------------------------------------------------------

    def run(
        self,
        tau_in: float,
        *,
        invocations: int = INVOCATIONS,
        warmup: int = WARMUP,
        max_recoveries: int | None = None,
        fault_trace: "FaultTrace | None" = None,
        tracer: Tracer = NULL_TRACER,
    ) -> RunResult:
        """Simulate ``invocations`` periodic invocations at period ``tau_in``,
        the first ``warmup`` of them unmeasured.

        A :class:`~repro.trace.tracer.TraceRecorder` as ``tracer``
        captures the run as structured events — ``flight`` spans per
        message instance, ``link`` occupancy/blocked spans per channel,
        ``task`` spans, ``run`` completion instants — and rides back on
        the result's ``trace``.

        ``max_recoveries`` bounds deadlock recoveries (see the module
        docstring); it defaults to ``500 * invocations``.  Exhausting it
        raises :class:`~repro.errors.SimulationError`, as do a ``tau_in``
        below ``tau_c`` and, before any simulation, ``invocations`` and
        ``warmup`` that :func:`~repro.results.require_measured` rejects.

        ``fault_trace`` injects link outages (and node faults, expanded to
        their incident links) into the run: failed links stop granting,
        so flights block on them like on any busy channel.  A flight
        stalled on a failed link when the simulation can make no other
        progress is aborted and retried (the deadlock-recovery machinery
        reused as fault detection); adaptive routing then re-plans around
        the failure, while a deterministic router re-requests the dead
        link and the run is declared stuck after
        :data:`MAX_FAULT_ABORTS_PER_FLIGHT` futile retries.
        """
        if tau_in < self.timing.tau_c:
            raise SimulationError(
                f"tau_in={tau_in} below tau_c={self.timing.tau_c}: input "
                "accumulates without bound (paper Section 2)"
            )
        require_measured(invocations, warmup, SimulationError)

        env = Environment(tracer=tracer)
        links: dict[Link, Resource] = {
            link: Resource(env, capacity=self.virtual_channels, name=str(link))
            for link in self.topology.links
        }
        injector = None
        if fault_trace is not None:
            from repro.faults.injection import FaultInjector

            injector = FaultInjector(env, links, fault_trace, self.topology)
        aps: dict[int, Resource] = {
            node: Resource(env, capacity=1, name=f"AP{node}")
            for node in set(self.allocation.values())
        }

        # -- per-run tables ------------------------------------------------
        tfg, allocation = self.tfg, self.allocation
        xmit_scale = float(self.virtual_channels)
        tasks: dict[str, _TaskRow] = {}
        for task in tfg.tasks:
            node = allocation[task.name]
            out = tuple(
                _MessageRow(
                    message.name, node, allocation[message.dst],
                    self.timing.xmit_time(message.name) * xmit_scale,
                    message.dst, f"msg {message.name}",
                )
                for message in tfg.messages_out(task.name)
            )
            tasks[task.name] = _TaskRow(
                aps[node], self.timing.exec_time(task.name), f"node{node}", out
            )
        # Dependencies left per task instance: its incoming messages (or,
        # for an input task, the external input) plus, after the first
        # invocation, the task's own previous instance.
        inputs = [t.name for t in tfg.tasks if not tfg.messages_in(t.name)]
        pending: dict[tuple[str, int], int] = {
            (task.name, j): max(len(tfg.messages_in(task.name)), 1) + (j > 0)
            for j in range(invocations)
            for task in tfg.tasks
        }
        outputs_pending = [len(tfg.output_tasks)] * invocations
        # Completion instants, in invocation order (pipelining orders
        # instance j before j+1).
        completions = Monitor("completions")
        # Flights blocked on a link claim, for deadlock recovery.
        waiting: dict[_Key, _Flight] = {}
        flights: dict[_Key, _Flight] = {}
        # Diagnostics: time spent blocked per link, across the whole run.
        link_waits: dict[Link, float] = {}
        hold = self.hold_entire_path
        tracing = tracer.enabled
        call = env.call_later
        flight_links = self._flight_links

        # -- tasks -----------------------------------------------------------
        def input_arrival(j: int) -> None:  # every tau_in
            call(0.0, inputs_met, j)
            if j + 1 < invocations:
                call(tau_in, input_arrival, j + 1)

        def inputs_met(j: int) -> None:
            for name in inputs:
                dependency_met((name, j))

        def dependency_met(instance: tuple[str, int]) -> None:
            left = pending[instance] - 1
            pending[instance] = left
            if left == 0:
                call(0.0, task_ready, instance)

        def task_ready(instance: tuple[str, int]) -> None:
            tasks[instance[0]].ap.claim(instance, ap_granted)

        def ap_granted(claim: Claim) -> None:
            call(tasks[claim.owner[0]].exec_time, exec_end, claim)

        def exec_end(claim: Claim) -> None:
            name, j = claim.owner
            row = tasks[name]
            row.ap.release(claim)
            now = env.now
            if tracing:
                assert claim.grant_time is not None
                tracer.span("task", name, claim.grant_time, now,
                            track=row.track, invocation=j)
            if j + 1 < invocations:
                call(0.0, dependency_met, (name, j + 1))
            for message in row.out:
                call(0.0, flight_boot, (message, j))
            if not row.out:
                outputs_pending[j] -= 1
                if outputs_pending[j] == 0:
                    completions.record(now, j)
                    if tracing:
                        tracer.instant("run", "completion", now,
                                       track="outputs", invocation=j)

        # -- flights ---------------------------------------------------------
        def flight_boot(launch: tuple[_MessageRow, int]) -> None:
            message, j = launch
            if message.src == message.dst:
                call(0.0, dependency_met, (message.dst_task, j))
                return
            flight = flights[(message.name, j)] = _Flight(message, j, env.now)
            start_attempt(flight)

        def start_attempt(flight: _Flight) -> None:
            """Acquire the route from the source (again, after an abort)."""
            flight.held = []
            flight.route = flight_links(links, flight.message.src,
                                        flight.message.dst)
            claim_next(flight)

        def claim_next(flight: _Flight) -> None:
            link = next(flight.route, None)
            if link is None:
                if hold:
                    call(flight.message.xmit, transmit_end, flight)
                else:
                    arrive(flight)
                return
            flight.link = link
            flight.claim = links[link].claim(flight.key, hop_granted)
            if hold:
                waiting[flight.key] = flight

        def hop_granted(claim: Claim) -> None:
            flight = flights[claim.owner]
            link = flight.link
            # Grant callbacks run at the grant instant.
            waited = env.now - claim.request_time
            if waited > 0:
                link_waits[link] = link_waits.get(link, 0.0) + waited
            flight.held.append((link, claim))
            if hold:
                del waiting[flight.key]
                claim_next(flight)
            else:
                # Store-and-forward: retransmit the whole message per hop.
                call(flight.message.xmit, transmit_end, flight)

        def transmit_end(flight: _Flight) -> None:
            for link, claim in flight.held:
                links[link].release(claim)
            if hold:
                arrive(flight)
            else:
                flight.held = []
                claim_next(flight)

        def arrive(flight: _Flight) -> None:
            message = flight.message
            if tracing:
                tracer.span("flight", message.name, flight.launched, env.now,
                            track=message.track, invocation=flight.j)
            del flights[flight.key]
            call(0.0, dependency_met, (message.dst_task, flight.j))

        def abort(flight: _Flight) -> None:
            """Drop all the blocked flight holds and restart it later."""
            del waiting[flight.key]
            links[flight.link].cancel(flight.claim)
            for link, claim in flight.held:
                links[link].release(claim)
            if tracing:
                tracer.instant("flight", "abort", env.now,
                               track=flight.message.track, invocation=flight.j,
                               cause="deadlock recovery")
            # Back off so the flight that won the broken cycle can drain
            # instead of immediately re-colliding.
            call(flight.message.xmit, start_attempt, flight)

        call(0.0, input_arrival, 0)
        recoveries = 0
        fault_aborts: dict[_Key, int] = {}
        budget = (
            max_recoveries if max_recoveries is not None else 500 * invocations
        )
        while True:
            env.run()
            if len(completions) == invocations:
                break
            victim = self._pick_recovery_victim(waiting, links)
            if victim is None:
                victim = self._pick_fault_victim(waiting, links, fault_aborts)
            if victim is None or recoveries >= budget:
                blocked = sorted(str(k) for k in waiting)
                detail = (
                    " (some flights are stuck on permanently failed links)"
                    if injector is not None and injector.failed_links()
                    else ""
                )
                raise SimulationError(
                    f"wormhole deadlock: {invocations - len(completions)} "
                    f"invocations never completed on {self.topology.name} "
                    f"at tau_in={tau_in} after {recoveries} recoveries; "
                    f"blocked messages: {blocked}{detail}"
                )
            recoveries += 1
            if tracing:
                tracer.instant(
                    "flight", "recovery", env.now,
                    track=f"msg {victim[0]}", invocation=victim[1],
                )
            abort(waiting[victim])

        # The callbacks reach one another through their closure cells, and
        # through them every table of the run: emptying the cells frees
        # the run when it returns, not at the next cyclic collection.
        del (input_arrival, inputs_met, dependency_met, task_ready, ap_granted,
             exec_end, flight_boot, start_attempt, claim_next, hop_granted,
             transmit_end, arrive, abort)
        completion_times = tuple(time for time, _ in completions)
        extra = {
            "virtual_channels": self.virtual_channels,
            "recoveries": recoveries,
            "link_waits": link_waits,
        }
        if injector is not None:
            extra["fault_events"] = injector.events
            extra["fault_aborts"] = sum(fault_aborts.values())
        return RunResult(
            tau_in=tau_in,
            completion_times=completion_times,
            warmup=warmup,
            critical_path_length=self.timing.critical_path().length,
            technique="wormhole",
            extra=extra,
            trace=tracer if isinstance(tracer, TraceRecorder) else None,
        )

    @staticmethod
    def _pick_recovery_victim(waiting: _Waiting, links: _Links) -> _Key | None:
        """The blocked flight to abort.

        Walks the wait-for graph (flight -> holders of the link it waits
        for, worked out only for the flights the search reaches), finds a
        hold-and-wait cycle, and aborts the cycle member holding the
        fewest links — the least transmission progress lost.  Aborting
        *on* the cycle is what guarantees each recovery makes progress; an
        arbitrary blocked flight may be an innocent bystander whose abort
        recreates the identical stuck state.
        """

        def blockers(key: _Key) -> list[_Key]:
            # A flight re-requesting a link it already holds (possible
            # under adaptive misrouting) is a self-edge: a one-node cycle
            # the DFS finds like any other.  A loop, not a comprehension:
            # one Python frame per visited flight, not two.
            out = []
            for claim in links[waiting[key].link].holders:
                if claim.owner in waiting:
                    out.append(claim.owner)
            return out

        cycle = _find_cycle(waiting, blockers)
        return None if cycle is None else _fewest_held(waiting, cycle)

    @staticmethod
    def _pick_fault_victim(
        waiting: _Waiting, links: _Links, fault_aborts: dict[_Key, int]
    ) -> _Key | None:
        """A flight stalled on a *failed* link to abort and retry.

        Fault detection reuses the recovery machinery: the aborted flight
        drops its held links, backs off, and re-acquires — an adaptive
        router then plans around the dead link.  Each flight gets
        :data:`MAX_FAULT_ABORTS_PER_FLIGHT` retries; a flight exhausting
        them (deterministic routing over a permanent failure) is left
        blocked and the run raises.
        """
        candidates = [
            key
            for key, flight in waiting.items()
            if links[flight.link].failed
            and fault_aborts.get(key, 0) < MAX_FAULT_ABORTS_PER_FLIGHT
        ]
        if not candidates:
            return None
        victim = _fewest_held(waiting, candidates)
        fault_aborts[victim] = fault_aborts.get(victim, 0) + 1
        return victim


def _fewest_held(waiting: _Waiting, keys: Iterable[_Key]) -> _Key:
    """The flight holding the fewest links (then earliest invocation, then
    name): the least transmission progress lost by aborting it.  ``keys``
    is never empty (a cycle, or the fault candidates)."""
    best: tuple[int, int, str] | None = None
    for key in keys:
        rank = (len(waiting[key].held), key[1], key[0])
        if best is None or rank < best:
            best = rank
    assert best is not None
    return (best[2], best[1])


def _find_cycle(graph: Mapping, successors: Callable[[Any], list]) -> list | None:
    """A cycle in a directed graph as a list of nodes, or None.

    Iterative three-color DFS: roots in ``graph`` order, each node's
    children in ``str`` order, so recovery victims are reproducible.
    ``successors(node)`` returns a fresh list of the node's children that
    are in ``graph``.  It is asked for on reaching a node, only the nodes
    the search reaches are coloured, and only a node with two or more
    children is sorted.
    """
    GREY, BLACK = 1, 2
    color: dict = {}  # absent = white
    for root in graph:
        if root in color:
            continue
        # path: the grey nodes, root first; unvisited[i]: path[i]'s
        # children not yet tried, the next one last.
        path: list = []
        unvisited: list[list] = []
        node = root
        while True:  # enter the white ``node``, then find the next one
            color[node] = GREY
            path.append(node)
            children = successors(node)
            if len(children) > 1:
                children.sort(key=str)
                children.reverse()
            unvisited.append(children)
            while unvisited:
                children = unvisited[-1]
                if not children:
                    color[path.pop()] = BLACK
                    unvisited.pop()
                    continue
                node = children.pop()
                state = color.get(node)
                if state is None:
                    break
                if state == GREY:
                    return path[path.index(node):]
            else:  # the root's whole reach is black
                break
    return None
