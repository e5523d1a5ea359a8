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

from typing import TYPE_CHECKING, Callable, Mapping

from repro.errors import SimulationError
from repro.mapping.allocation import validate_allocation
from repro.results import (
    MIN_MEASURED_INVOCATIONS,
    RunConfig,
    RunResult,
    resolve_run_config,
)
from repro.sim import Environment, Event, Interrupt, Monitor, Resource
from repro.tfg.analysis import TFGTiming
from repro.topology.base import Link, Topology
from repro.topology.routing import links_on_path, lsd_to_msd_route, validate_path
from repro.trace.tracer import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.models import FaultTrace

#: Fault-blocked flights are aborted and retried at most this many times
#: each before the run is declared stuck (a deterministic router facing a
#: permanent failure re-requests the same dead link forever; adaptive
#: routing re-plans around it on the first retry).
MAX_FAULT_ABORTS_PER_FLIGHT = 3


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

    def _flight_links(self, links, src_node: int, dst_node: int):
        """The sequence of links a flight acquires, in order.

        The base class follows the deterministic routing function; the
        adaptive subclass re-plans each hop from live link state.
        """
        yield from links_on_path(self.route(src_node, dst_node))

    # -- simulation ------------------------------------------------------------

    def run(
        self,
        tau_in: float,
        invocations: int | None = None,
        warmup: int | None = None,
        max_recoveries: int | None = None,
        fault_trace: "FaultTrace | None" = None,
        *,
        config: RunConfig | None = None,
    ) -> RunResult:
        """Simulate ``invocations`` periodic invocations at period ``tau_in``.

        Run parameters come from ``config`` (a
        :class:`~repro.results.RunConfig`, the unified run API); the
        individual keywords are retained as a thin shim and, when
        given, override the corresponding config fields.  A
        :class:`~repro.trace.tracer.TraceRecorder` in
        ``config.tracer`` captures the run as structured events —
        ``flight`` spans per message instance, ``link``
        occupancy/blocked spans per channel, ``task`` spans, ``run``
        completion instants — and rides back on the result's ``trace``.

        ``max_recoveries`` bounds deadlock recoveries (see the module
        docstring); it defaults to ``500 * invocations``.  Exhausting it
        raises :class:`~repro.errors.SimulationError`.

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
        config = resolve_run_config(
            config,
            invocations=invocations,
            warmup=warmup,
            max_recoveries=max_recoveries,
            fault_trace=fault_trace,
        )
        invocations, warmup = config.invocations, config.warmup
        max_recoveries, fault_trace = config.max_recoveries, config.fault_trace
        tracer = config.tracer
        if tau_in < self.timing.tau_c:
            raise SimulationError(
                f"tau_in={tau_in} below tau_c={self.timing.tau_c}: input "
                "accumulates without bound (paper Section 2)"
            )
        if invocations - warmup < MIN_MEASURED_INVOCATIONS:
            raise SimulationError(
                f"need >= {MIN_MEASURED_INVOCATIONS} measured invocations, "
                f"got {invocations} with warmup={warmup}"
            )

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
        xmit_scale = float(self.virtual_channels)

        deliveries: dict[tuple[str, int], Event] = {}
        instance_done: dict[tuple[str, int], Event] = {}
        arrivals: dict[int, Event] = {}
        for j in range(invocations):
            for message in self.tfg.messages:
                deliveries[(message.name, j)] = env.event()
            for task in self.tfg.tasks:
                instance_done[(task.name, j)] = env.event()
            arrivals[j] = env.event()

        outputs_pending = {j: len(self.tfg.output_tasks) for j in range(invocations)}
        # Completion instants, recorded in invocation order (pipelining
        # orders instance j before j+1); Monitor gives O(1) length checks
        # in the recovery loop below, unlike the copying ``times`` view.
        completions = Monitor("completions")

        def input_source():
            """External input arrivals every tau_in."""
            for j in range(invocations):
                yield env.timeout(tau_in if j else 0.0)
                arrivals[j].succeed(j)

        # Flights blocked on a link request, for deadlock recovery:
        # key -> (pending request, its link, links already held).
        waiting: dict[tuple[str, int], tuple] = {}
        # Diagnostics: time spent blocked per link, across the whole run.
        link_waits: dict[Link, float] = {}

        def message_flight(message, j):
            """Acquire the route link by link (FCFS), transmit, release.

            The link sequence comes from :meth:`_flight_links` — static
            LSD->MSD for this class, re-planned per hop by the adaptive
            subclass.  On :class:`~repro.sim.events.Interrupt` (deadlock
            recovery) the flight drops everything it holds, backs off one
            transmission time, and starts over from the source.
            """
            key = (message.name, j)
            src_node = self.allocation[message.src]
            dst_node = self.allocation[message.dst]
            launched = env.now
            if src_node == dst_node:
                deliveries[key].succeed()
                return
            if not self.hold_entire_path:
                # Store-and-forward: hold one link at a time, retransmit
                # the whole message per hop.  No hold-and-wait, hence no
                # deadlock — Interrupt never reaches these flights.
                for link in self._flight_links(links, src_node, dst_node):
                    request = links[link].request(owner=key)
                    yield request
                    waited = request.grant_time - request.request_time
                    if waited > 0:
                        link_waits[link] = link_waits.get(link, 0.0) + waited
                    yield env.timeout(
                        self.timing.xmit_time(message.name) * xmit_scale
                    )
                    links[link].release(request)
                if tracer.enabled:
                    tracer.span(
                        "flight", message.name, launched, env.now,
                        track=f"msg {message.name}", invocation=j,
                    )
                deliveries[key].succeed()
                return
            while True:
                held = []
                aborted = False
                for link in self._flight_links(links, src_node, dst_node):
                    request = links[link].request(owner=key)
                    waiting[key] = (request, link, held)
                    try:
                        yield request
                    except Interrupt as interrupt:
                        waiting.pop(key, None)
                        if request.triggered:
                            links[link].release(request)
                        else:
                            links[link].cancel(request)
                        for held_link, held_request in held:
                            links[held_link].release(held_request)
                        if tracer.enabled:
                            tracer.instant(
                                "flight", "abort", env.now,
                                track=f"msg {message.name}", invocation=j,
                                cause=str(interrupt.cause),
                            )
                        aborted = True
                        break
                    waiting.pop(key, None)
                    waited = request.grant_time - request.request_time
                    if waited > 0:
                        link_waits[link] = link_waits.get(link, 0.0) + waited
                    held.append((link, request))
                if not aborted:
                    break
                # Back off so the flight that won the broken cycle can
                # drain instead of immediately re-colliding.
                yield env.timeout(
                    self.timing.xmit_time(message.name) * xmit_scale
                )
            yield env.timeout(self.timing.xmit_time(message.name) * xmit_scale)
            for link, request in held:
                links[link].release(request)
            if tracer.enabled:
                tracer.span(
                    "flight", message.name, launched, env.now,
                    track=f"msg {message.name}", invocation=j,
                )
            deliveries[key].succeed()

        def task_instance(task, j, spawn_flight):
            """One invocation of one task on its node's AP."""
            waits = [deliveries[(m.name, j)] for m in self.tfg.messages_in(task.name)]
            if not waits:
                waits.append(arrivals[j])
            if j > 0:
                waits.append(instance_done[(task.name, j - 1)])
            yield env.all_of(waits)
            ap = aps[self.allocation[task.name]]
            grant = ap.request(owner=(task.name, j))
            yield grant
            exec_start = env.now
            yield env.timeout(self.timing.exec_time(task.name))
            ap.release(grant)
            if tracer.enabled:
                tracer.span(
                    "task", task.name, exec_start, env.now,
                    track=f"node{self.allocation[task.name]}", invocation=j,
                )
            instance_done[(task.name, j)].succeed(env.now)
            for message in self.tfg.messages_out(task.name):
                spawn_flight(message, j)
            if not self.tfg.messages_out(task.name):
                outputs_pending[j] -= 1
                if outputs_pending[j] == 0:
                    completions.record(env.now, j)
                    if tracer.enabled:
                        tracer.instant(
                            "run", "completion", env.now,
                            track="outputs", invocation=j,
                        )

        env.process(input_source())
        flight_processes: dict[tuple[str, int], object] = {}

        def spawn_flight(message, j):
            process = env.process(message_flight(message, j))
            flight_processes[(message.name, j)] = process
            return process

        for j in range(invocations):
            for task in self.tfg.tasks:
                env.process(task_instance(task, j, spawn_flight))

        recoveries = 0
        fault_aborts: dict[tuple[str, int], int] = {}
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
            if tracer.enabled:
                tracer.instant(
                    "flight", "recovery", env.now,
                    track=f"msg {victim[0]}", invocation=victim[1],
                )
            flight_processes[victim].interrupt(cause="deadlock recovery")

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
    def _pick_recovery_victim(waiting, links):
        """The blocked flight to abort.

        Walks the wait-for graph (flight -> holders of the link it waits
        for, worked out only for the flights the search reaches), finds a
        hold-and-wait cycle, and aborts the cycle member holding the
        fewest links — the least transmission progress lost.  Aborting
        *on* the cycle is what guarantees each recovery makes progress; an
        arbitrary blocked flight may be an innocent bystander whose abort
        recreates the identical stuck state.
        """

        def blockers(key: tuple) -> set:
            # A flight re-requesting a link it already holds (possible
            # under adaptive misrouting) is a self-edge: a one-node cycle
            # the DFS finds like any other.
            return {
                request.owner
                for request in links[waiting[key][1]].holders
                if request.owner in waiting
            }

        cycle = _find_cycle(waiting, blockers)
        if cycle is None:
            return None
        _, j, name = min(
            (len(waiting[key][2]), key[1], key[0]) for key in cycle
        )
        return (name, j)

    @staticmethod
    def _pick_fault_victim(waiting, links, fault_aborts):
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
            for key, (_, wanted_link, _) in waiting.items()
            if links[wanted_link].failed
            and fault_aborts.get(key, 0) < MAX_FAULT_ABORTS_PER_FLIGHT
        ]
        if not candidates:
            return None
        _, j, name = min(
            (len(waiting[key][2]), key[1], key[0]) for key in candidates
        )
        fault_aborts[(name, j)] = fault_aborts.get((name, j), 0) + 1
        return (name, j)



def _find_cycle(graph: Mapping, successors: Callable | None = None) -> list | None:
    """A cycle in a directed graph as a list of nodes, or None.

    Iterative three-color DFS; deterministic given the (insertion-ordered)
    adjacency so recovery victims are reproducible.  A node's children
    (``successors(node)``, default ``graph[node]``) are asked for on reaching it.
    """
    successors = successors or graph.__getitem__
    WHITE, GREY, BLACK = 0, 1, 2
    color = {node: WHITE for node in graph}
    for root in graph:
        if color[root] != WHITE:
            continue
        stack = [(root, iter(sorted(successors(root), key=str)))]
        color[root] = GREY
        path = [root]
        while stack:
            node, children = stack[-1]
            advanced = False
            for child in children:
                if child not in color:
                    continue
                if color[child] == GREY:
                    return path[path.index(child):]
                if color[child] == WHITE:
                    color[child] = GREY
                    path.append(child)
                    stack.append(
                        (child, iter(sorted(successors(child), key=str)))
                    )
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                path.pop()
                stack.pop()
    return None
