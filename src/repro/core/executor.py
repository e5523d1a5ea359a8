"""Replay of Ω, the switching schedules the CPs run, on the discrete-event
kernel.

The paper *argues* that independently executed switching schedules
(Fig. 2) are contention-free and meet every deadline; this executor
*machine-checks* it from Ω alone, never reading the slot table.  It
first chains each message's crossbar settings into *circuits*: the
commands of one ``(message, time, duration)`` are walked from the
source CP's command taking the AP's output buffer, along output ports,
to the destination CP's command feeding its AP.  A command outside the
frame, a port that is no channel of its node, a broken, looping or
misdirected chain, a left-over command, a command for no routed message
and a routed message without a circuit each raise
:class:`~repro.errors.ScheduleValidationError` there.

It then replays periods as one timeline of instants: tasks finish at
their static ASAP instants, and every circuit claims all links of its
node sequence as exclusive FCFS resources at its absolute start and
frees them at its end.  A channel is a half-duplex link and the AP
buffers never conflict, so link exclusivity is crossbar port
exclusivity.  A claim that has to queue and is not handed its link
within ``EPS`` (or at all, by the end of its window) is a contention
violation and aborts the run; any delivery completing after its
destination task's start instant is a deadline violation, checked
statically for every invocation asked.

How many periods it replays follows from the schedule being periodic.
Invocation j files the claims, releases and task finishes of invocation
0 shifted by ``j * tau_in``, and all of them within ``span`` of its own
start, where ``span`` is the latest instant invocation 0 files.  Two
invocations more than K = ⌈span / tau_in⌉ apart therefore never meet on
a link, and invocations 0…K meet at every offset that can.  A run with
no fault trace and a disabled tracer replays just those K + 1,
whatever the number asked, and writes the later completions down with
the expression the replay files them at; its verdict holds for every
invocation.  A run with a fault trace (outages and drift are not
periodic) or an enabled tracer (which records every invocation)
replays all of them.

A successful replay yields a :class:`~repro.results.RunResult` with
``technique="scheduled"`` whose output intervals are exactly ``tau_in``
— the constant throughput the paper guarantees.  Pass a
:class:`~repro.results.RunConfig` carrying a
:class:`~repro.trace.tracer.TraceRecorder` to capture the replay as a
structured trace: ``slot`` spans for every circuit's transmission
window, ``link`` occupancy spans for every grant, ``task`` spans per
invocation, and ``run`` completion instants.

Fault injection
---------------
``run(fault_trace=...)`` replays the same schedule on a *breaking*
machine: a :class:`~repro.faults.injection.FaultInjector` drives link
outages from the trace, and per-node clock drift shifts the transmission
windows of the drifted node's outgoing messages.  A slot claim on a
failed link raises :class:`~repro.errors.LinkFailedError` (the detection
event the repair engine consumes); drift-induced contention or deadline
misses raise the other :class:`~repro.errors.FaultInjectionError`
subclasses instead of :class:`~repro.errors.ScheduleValidationError`,
because the schedule is healthy — the machine is not.
"""

from __future__ import annotations

import math
from collections import defaultdict
from functools import partial
from typing import TYPE_CHECKING, Mapping, NamedTuple

from repro.core.compiler import ScheduledRouting
from repro.core.switching import AP_PORT, CommunicationSchedule, Port, SwitchCommand
from repro.errors import (
    FaultedDeadlineError,
    FaultInjectionError,
    LinkFailedError,
    ScheduleValidationError,
)
from repro.results import (
    RunConfig,
    RunResult,
    require_measured,
    resolve_run_config,
)
from repro.sim import Claim, Environment, Monitor, Resource
from repro.tfg.analysis import TFGTiming
from repro.tfg.graph import TaskFlowGraph
from repro.topology.base import Link, Topology
from repro.topology.routing import links_on_path
from repro.trace.tracer import TraceRecorder
from repro.units import EPS

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.models import FaultTrace


class Circuit(NamedTuple):
    """One clear path of Ω: from frame time ``time`` for ``duration``, the
    crossbar settings of ``path``'s nodes chain the source AP's output
    buffer to the destination AP's input buffer."""

    time: float
    duration: float
    path: tuple[int, ...]


def omega_circuits(
    schedule: CommunicationSchedule,
    tfg: TaskFlowGraph,
    topology: Topology,
    allocation: Mapping[str, int],
) -> dict[str, tuple[Circuit, ...]]:
    """Every routed message's circuits, in frame order, walked from Ω.

    Raises :class:`~repro.errors.ScheduleValidationError` unless every
    command lies in the frame on channels of its node and chains, with
    the others of its ``(message, time, duration)``, into exactly one
    source-to-destination circuit, and every routed message has one.
    """
    tau_in = schedule.tau_in
    messages = {message.name: message for message in tfg.messages}
    # (message, time, duration) -> (node, input port) -> its commands
    groups: dict[
        tuple[str, float, float], dict[tuple[int, Port], list[SwitchCommand]]
    ] = {}
    for node, node_schedule in schedule.node_schedules.items():
        channels = (
            topology.neighbors(node) if 0 <= node < topology.num_nodes else ()
        )
        for command in node_schedule.commands:
            name = command.message
            if not -EPS <= command.time <= command.end <= tau_in + EPS:
                raise ScheduleValidationError(
                    f"node {node}: command for {name!r} [{command.time}, "
                    f"{command.end}] outside frame [0, {tau_in}]"
                )
            for port in (command.input_port, command.output_port):
                if port != AP_PORT and port not in channels:
                    raise ScheduleValidationError(
                        f"node {node}: no channel to {port!r} "
                        f"(channels: {sorted(channels)})"
                    )
            message = messages.get(name)
            if message is None or (
                allocation[message.src] == allocation[message.dst]
            ):
                raise ScheduleValidationError(
                    f"node {node}: command for {name!r}, which is no routed "
                    "message of the TFG"
                )
            groups.setdefault(
                (name, command.time, command.duration), {}
            ).setdefault((node, command.input_port), []).append(command)

    circuits: dict[str, list[Circuit]] = {}
    for (name, time, duration), settings in groups.items():
        message = messages[name]
        where = f"message {name!r} at t={time!r}"
        node, came_from, path = allocation[message.src], AP_PORT, []
        while True:
            waiting = settings.get((node, came_from))
            if not waiting:
                raise ScheduleValidationError(
                    f"{where}: circuit broken at node {node}, no command "
                    f"takes input {came_from!r}"
                )
            command = waiting.pop()
            if node in path:
                raise ScheduleValidationError(
                    f"{where}: circuit visits node {node} twice"
                )
            path.append(node)
            if command.output_port == came_from:
                raise ScheduleValidationError(
                    f"{where}: node {node} connects port {came_from!r} "
                    "to itself"
                )
            if command.output_port == AP_PORT:
                break
            came_from, node = node, command.output_port
        destination = allocation[message.dst]
        if node != destination:
            raise ScheduleValidationError(
                f"{where}: circuit ends at node {node}, not at the "
                f"destination {destination}"
            )
        for (node, _), left in settings.items():
            if left:
                raise ScheduleValidationError(
                    f"{where}: node {node}'s command {left[0]} is on no "
                    "circuit"
                )
        circuits.setdefault(name, []).append(
            Circuit(time, duration, tuple(path))
        )
    for message in tfg.messages:
        if message.name not in circuits and (
            allocation[message.src] != allocation[message.dst]
        ):
            raise ScheduleValidationError(
                f"routed message {message.name!r} has no circuit in the "
                "node schedules"
            )
    return {name: tuple(sorted(found)) for name, found in circuits.items()}


class ScheduledRoutingExecutor:
    """Runs a compiled schedule's Ω and verifies its guarantees dynamically."""

    def __init__(
        self,
        routing: ScheduledRouting,
        timing: TFGTiming,
        topology: Topology,
        allocation: Mapping[str, int],
    ):
        self.routing = routing
        self.timing = timing
        self.topology = topology
        self.allocation = dict(allocation)
        self.tau_in = routing.tau_in
        self._asap = timing.asap_schedule()
        self.circuits = omega_circuits(
            routing.schedule, timing.tfg, topology, self.allocation
        )
        # message -> (its source's ASAP finish, each circuit's (offset
        # into the message's window, duration)): see absolute_slots.
        self._offsets: dict[str, tuple[float, list[tuple[float, float]]]] = {}
        for name, circuits in self.circuits.items():
            r = routing.bounds.bounds[name].release
            self._offsets[name] = (
                self._asap[timing.tfg.message(name).src][1],
                [
                    (time - r if time >= r - EPS else (self.tau_in - r) + time,
                     duration)
                    for time, duration, _ in circuits
                ],
            )
        # K of the module docstring, from the latest instant invocation 0
        # files: a task finish, or a release (every claim precedes its own).
        span = max(
            start + (finish - start) for start, finish in self._asap.values()
        )
        for name in self.circuits:
            for start, end in self.absolute_slots(name, 0):
                span = max(span, start + (end - start))
        self.overlap = math.ceil(span / self.tau_in)

    @property
    def commands_placed(self) -> int:
        """How many of Ω's switching commands the circuits hold."""
        return sum(
            len(circuit.path)
            for circuits in self.circuits.values()
            for circuit in circuits
        )

    # -- frame -> absolute time mapping --------------------------------------

    def absolute_slots(
        self, message_name: str, invocation: int
    ) -> list[tuple[float, float]]:
        """Absolute ``(start, end)`` occurrences of a message's circuits in
        one invocation, in frame order.

        A circuit at frame time ``s`` maps into the invocation's window
        starting at the absolute release ``j * tau_in + t_f(src)``:
        circuits at or after the wrapped release come ``s - r`` into the
        window; earlier ones belong to the wrapped head and come
        ``(tau_in - r) + s`` in.
        """
        release, offsets = self._offsets[message_name]
        abs_release = invocation * self.tau_in + release
        occurrences = []
        for offset, duration in offsets:
            start = abs_release + offset
            occurrences.append((start, start + duration))
        return occurrences

    def _completion_time(self, invocation: int) -> float:
        """The instant the replay records ``invocation`` complete: the
        latest finish it files for an output task."""
        return max(
            (invocation * self.tau_in + start) + (finish - start)
            for start, finish in (
                self._asap[task.name] for task in self.timing.tfg.output_tasks
            )
        )

    def _drift_shift(
        self, message_name: str, fault_trace: "FaultTrace | None"
    ) -> float:
        """Clock-drift shift of a message's transmission windows.

        The source CP's clock dictates when the flight enters the network,
        so the whole clear-path window shifts by the source node's drift
        offset.  Zero without a trace or for undrifted nodes.
        """
        if fault_trace is None:
            return 0.0
        message = self.timing.tfg.message(message_name)
        return fault_trace.drift_of(self.allocation[message.src])

    # -- execution ------------------------------------------------------

    def run(
        self,
        invocations: int | None = None,
        warmup: int | None = None,
        fault_trace: "FaultTrace | None" = None,
        *,
        config: RunConfig | None = None,
    ) -> RunResult:
        """Run the schedule for ``config.invocations`` periods.

        Accepts a :class:`~repro.results.RunConfig` (the unified run
        API); the ``invocations``/``warmup``/``fault_trace`` keywords
        are retained as a thin shim and, when given, override the
        corresponding config fields.

        ``completion_times`` and ``extra["link_busy"]`` describe exactly
        the invocations asked, however many are replayed (the module
        docstring says which): the completions past the replayed ones
        are written down, and ``link_busy`` adds up every asked
        invocation's windows.

        Raises :class:`~repro.errors.ScheduleValidationError` if the
        replay observes link contention or a missed delivery deadline on a
        healthy machine, and the applicable
        :class:`~repro.errors.FaultInjectionError` subclass when an
        injected fault (``config.fault_trace``) causes the violation.
        """
        config = resolve_run_config(
            config,
            invocations=invocations,
            warmup=warmup,
            fault_trace=fault_trace,
        )
        invocations, warmup = config.invocations, config.warmup
        fault_trace, tracer = config.fault_trace, config.tracer
        require_measured(invocations, warmup, ScheduleValidationError)
        env = Environment(tracer=tracer)
        links: dict[Link, Resource] = {
            link: Resource(env, capacity=1, name=str(link))
            for link in self.topology.links
        }
        injector = None
        if fault_trace is not None:
            from repro.faults.injection import FaultInjector

            injector = FaultInjector(env, links, fault_trace, self.topology)
        link_busy: defaultdict[Link, float] = defaultdict(float)
        completions = Monitor("completions")
        outputs = {t.name for t in self.timing.tfg.output_tasks}
        tracing = tracer.enabled
        replayed = (
            invocations if fault_trace is not None or tracing
            else self.overlap + 1
        )
        pending = {j: len(outputs) for j in range(replayed)}
        # The replay as one timeline, instant -> what happens then.  At one
        # instant releases come first, so that back-to-back windows hand a
        # link over without queueing; a claim files its own release.
        releases: defaultdict[float, list] = defaultdict(list)
        claims: defaultdict[float, list] = defaultdict(list)
        finishes: defaultdict[float, list] = defaultdict(list)
        # Per message: its paths, and per path the busy time of the
        # invocations asked but not replayed.  Added to link_busy after
        # the replay, which so keeps the key order a full replay gives.
        unreplayed: list[tuple[list, list[float]]] = []

        def contention(link: Link, message_name: str) -> Exception:
            text = (
                f"contention on {link} while transmitting "
                f"{message_name!r} at t={env.now:.6f}"
            )
            if fault_trace is None:
                return ScheduleValidationError(text)
            return FaultInjectionError(
                text + " under injected faults (drift margin exceeded?)",
                detection_time=env.now,
            )

        def late_grant(link: Link, message_name: str, asked: float, _: Claim) -> None:
            if env.now - asked > EPS:
                raise contention(link, message_name)

        def fire(now: float) -> None:
            for message_name, path, held, busy in releases.pop(now, ()):
                for (link, resource), claim in zip(path, held):
                    if claim.grant_time is None:
                        # The window closed with its claim still queued.
                        raise contention(link, message_name)
                    resource.release(claim)
                    link_busy[link] += busy
            for message_name, path, busy, file_release in claims.pop(now, ()):
                held = []
                for link, resource in path:
                    if resource.failed:
                        if tracing:
                            tracer.instant(
                                "fault", "detection", now,
                                track=str(link), message=message_name,
                            )
                        raise LinkFailedError(link, message_name, now)
                    claim = resource.claim(message_name)
                    if claim.grant_time is None:
                        # Queued behind a holder: contention unless FCFS
                        # hands the link over within EPS of this instant.
                        claim.on_grant = partial(late_grant, link, message_name, now)
                    held.append(claim)
                file_release((message_name, path, held, busy))
            for task_name, invocation, run_start in finishes.pop(now, ()):
                if tracing:
                    tracer.span(
                        "task", task_name, run_start, now,
                        track=f"node{self.allocation[task_name]}",
                        invocation=invocation,
                    )
                if task_name in outputs:
                    pending[invocation] -= 1
                    if pending[invocation] == 0:
                        completions.record(now, invocation)
                        if tracing:
                            tracer.instant(
                                "run", "completion", now,
                                track="outputs", invocation=invocation,
                            )

        for message in self.timing.tfg.messages:
            name = message.name
            circuits = self.circuits.get(name)
            if circuits is None:
                continue  # local message: delivered in memory at source finish
            paths = [
                tuple((link, links[link]) for link in links_on_path(c.path))
                for c in circuits
            ]
            shift = self._drift_shift(name, fault_trace)
            dst_start = self._asap[message.dst][0]
            written_busy = [0.0] * len(paths)
            unreplayed.append((paths, written_busy))
            for j in range(max(invocations, replayed)):
                windows = self.absolute_slots(name, j)
                # Static deadline assertion: the last circuit (shifted
                # by any injected source-clock drift) must land before the
                # destination task's start.
                last_end = max(end for _, end in windows)
                due = j * self.tau_in + dst_start
                if last_end + shift > due + 1e-6:
                    if shift != 0.0:
                        raise FaultedDeadlineError(name, due, last_end + shift)
                    raise ScheduleValidationError(
                        f"message {name!r} invocation {j}: delivery "
                        f"at {last_end:.6f} misses destination start {due:.6f}"
                    )
                if j >= replayed:
                    for i, (start, end) in enumerate(windows):
                        written_busy[i] += end - start
                    continue
                for (start, end), path in zip(windows, paths):
                    start, end = max(start + shift, 0.0), end + shift
                    if tracing:
                        # The *compiled* transmission window; the
                        # link-occupancy spans emitted by the Resource
                        # record the *replayed* one (the SR guarantee is
                        # that the two coincide).
                        tracer.span(
                            "slot", name, start, end,
                            track=f"msg {name}", invocation=j,
                        )
                    duration = end - start
                    if not duration:
                        continue  # an empty window holds no link
                    # An invocation replayed past those asked counts for
                    # nothing in link_busy.
                    busy = duration if j < invocations else 0.0
                    claims[start].append((
                        name, path, busy, releases[start + duration].append,
                    ))
        for j in range(replayed):
            for task in self.timing.tfg.tasks:
                start, finish = self._asap[task.name]
                run_start = j * self.tau_in + start
                finishes[run_start + (finish - start)].append(
                    (task.name, j, run_start)
                )

        def arm(_: None) -> None:
            for instant in sorted({*releases, *claims, *finishes}):
                env.call_later(instant, fire, instant)

        # Armed from the agenda at t=0, behind the injector's outage
        # entries: an outage starting exactly at a claim instant is then
        # seen by the claim, and one restored exactly then (its entry
        # filed when the outage began) is not yet.
        env.call_later(0.0, arm, None)
        env.run()

        if len(completions) != replayed:
            raise ScheduleValidationError(
                f"{replayed} invocations replayed, {len(completions)} completed"
            )
        for paths, written_busy in unreplayed:
            for path, busy in zip(paths, written_busy):
                if busy:
                    for link, _ in path:
                        link_busy[link] += busy
        completion_times = [time for time, _ in completions][:invocations]
        completion_times += map(
            self._completion_time, range(replayed, invocations)
        )
        for j, (earlier, later) in enumerate(
            zip(completion_times, completion_times[1:])
        ):
            if abs((later - earlier) - self.tau_in) > EPS:
                raise ScheduleValidationError(
                    f"invocation {j + 1} completes {later - earlier!r} after "
                    f"invocation {j}, not one period {self.tau_in!r}"
                )
        extra = {
            "commands": self.routing.schedule.num_commands,
            "link_busy": dict(link_busy),
            "invocations": invocations,
        }
        if injector is not None:
            extra["fault_events"] = injector.events
        return RunResult(
            tau_in=self.tau_in,
            completion_times=tuple(completion_times),
            warmup=warmup,
            critical_path_length=self.timing.critical_path().length,
            technique="scheduled",
            extra=extra,
            trace=tracer if isinstance(tracer, TraceRecorder) else None,
        )
