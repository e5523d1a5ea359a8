"""The communication-processor model of paper Fig. 2, as the executor runs it.

Each node's CP connects, at commanded instants, an input port (a
channel from a neighbour, or the AP's output buffers) to an output port.
:class:`~repro.core.executor.ScheduledRoutingExecutor` chains those
settings into source-to-destination circuits and claims each circuit's
links on the DES kernel, so a crossbar port conflict is a link
contention there (channels are half-duplex links; the per-channel AP
buffers never conflict).  The schedules below are hand-written Ω on the
binary 3-cube.
"""

from types import SimpleNamespace

import pytest

from repro.core.compiler import compile_schedule
from repro.core.executor import Circuit, ScheduledRoutingExecutor
from repro.core.switching import AP_PORT, NodeSchedule, SwitchCommand
from repro.errors import ScheduleValidationError
from repro.tfg import TFGTiming
from repro.tfg.graph import TaskFlowGraph
from repro.tfg.synth import chain_tfg

FRAME = 20.0


def executor(cube3, messages, commands, frame=FRAME, demand=None):
    """An executor over hand-written node schedules.

    ``messages`` maps each message to its ``(source, destination)`` node;
    ``commands`` maps a node to its ``(time, duration, input, output,
    message)`` settings.  Every source task finishes at t = 1, every
    message gets a 40-long window and a frame release of 0, so a circuit
    at frame time ``t`` runs at ``j * frame + 1 + t`` in invocation ``j``.
    A message's transmission duration is ``demand[name]``, or else the
    time its source's AP is commanded to send it for.
    """
    sent = dict.fromkeys(messages, 0.0)
    for settings in commands.values():
        for _, duration, input_port, _, name in settings:
            if input_port == AP_PORT and name in sent:
                sent[name] += duration
    sent.update(demand or {})
    tfg, allocation = TaskFlowGraph("omega"), {}
    for name, (src, dst) in messages.items():
        tfg.add_task(f"{name}.src", 40.0)
        tfg.add_task(f"{name}.dst", 40.0)
        tfg.add_message(name, f"{name}.src", f"{name}.dst", 1280.0)
        allocation[f"{name}.src"], allocation[f"{name}.dst"] = src, dst
    timing = TFGTiming(tfg, 128.0, speeds=40.0, message_window=40.0)
    schedule = SimpleNamespace(node_schedules={
        node: NodeSchedule(node, tuple(SwitchCommand(*c) for c in settings))
        for node, settings in commands.items()
    })
    routing = SimpleNamespace(
        tau_in=frame, schedule=schedule,
        bounds=SimpleNamespace(bounds={
            name: SimpleNamespace(release=0.0, duration=sent[name])
            for name in messages
        }),
    )
    return ScheduledRoutingExecutor(routing, timing, cube3, allocation)


def replay(cube3, messages, commands, frame=FRAME):
    return executor(cube3, messages, commands, frame).run(
        invocations=6, warmup=2
    )


class TestCrossbar:
    def test_connect_and_disconnect(self, cube3):
        run = executor(cube3, {"m": (0, 1)}, {
            0: [(0.0, 5.0, AP_PORT, 1, "m")],
            1: [(0.0, 5.0, 0, AP_PORT, "m")],
        })
        assert run.circuits == {"m": (Circuit(0.0, 5.0, (0, 1)),)}
        result = run.run(invocations=6, warmup=2)
        assert result.extra["link_busy"] == {(0, 1): 6 * 5.0}

    def test_unknown_channel_rejected(self, cube3):
        with pytest.raises(ScheduleValidationError, match="no channel"):
            executor(cube3, {"m": (0, 7)}, {
                0: [(0.0, 5.0, AP_PORT, 7, "m")],  # 7 is not adjacent to 0
                7: [(0.0, 5.0, 0, AP_PORT, "m")],
            })

    def test_busy_channel_rejected(self, cube3):
        with pytest.raises(ScheduleValidationError, match="contention"):
            replay(cube3, {"m1": (0, 1), "m2": (2, 1)}, {
                0: [(0.0, 5.0, AP_PORT, 1, "m1"), (1.0, 5.0, 2, 1, "m2")],
                1: [(0.0, 5.0, 0, AP_PORT, "m1"), (1.0, 5.0, 0, AP_PORT, "m2")],
                2: [(1.0, 5.0, AP_PORT, 0, "m2")],
            })

    def test_half_duplex_port_is_exclusive_both_ways(self, cube3):
        with pytest.raises(ScheduleValidationError, match="contention"):
            replay(cube3, {"m1": (1, 0), "m2": (0, 1)}, {
                0: [(0.0, 5.0, 1, AP_PORT, "m1"),   # receiving from 1
                    (0.0, 5.0, AP_PORT, 1, "m2")],  # sending to 1 at once
                1: [(0.0, 5.0, AP_PORT, 0, "m1"), (0.0, 5.0, 0, AP_PORT, "m2")],
            })

    def test_ap_fan_is_unlimited(self, cube3):
        run = executor(cube3, {"m1": (0, 1), "m2": (0, 2), "m3": (4, 0)}, {
            0: [(0.0, 5.0, AP_PORT, 1, "m1"), (0.0, 5.0, AP_PORT, 2, "m2"),
                (0.0, 5.0, 4, AP_PORT, "m3")],
            1: [(0.0, 5.0, 0, AP_PORT, "m1")],
            2: [(0.0, 5.0, 0, AP_PORT, "m2")],
            4: [(0.0, 5.0, AP_PORT, 0, "m3")],
        })
        assert len(run.circuits) == 3
        run.run(invocations=6, warmup=2)

    def test_loop_rejected(self, cube3):
        with pytest.raises(ScheduleValidationError, match="to itself"):
            executor(cube3, {"m": (0, 3)}, {
                0: [(0.0, 5.0, AP_PORT, 1, "m")],
                1: [(0.0, 5.0, 0, 0, "m")],
            })


class TestCommunicationProcessor:
    def test_sequential_commands_execute(self, cube3):
        result = replay(cube3, {"m1": (0, 1), "m2": (0, 1)}, {
            0: [(0.0, 5.0, AP_PORT, 1, "m1"), (5.0, 5.0, AP_PORT, 1, "m2")],
            1: [(0.0, 5.0, 0, AP_PORT, "m1"), (5.0, 5.0, 0, AP_PORT, "m2")],
        })
        assert result.extra["commands"] == 4

    def test_overlap_on_channel_caught(self, cube3):
        with pytest.raises(ScheduleValidationError, match="contention"):
            replay(cube3, {"m1": (0, 1), "m2": (2, 1)}, {
                0: [(0.0, 5.0, AP_PORT, 1, "m1"), (3.0, 5.0, 2, 1, "m2")],
                1: [(0.0, 5.0, 0, AP_PORT, "m1"), (3.0, 5.0, 0, AP_PORT, "m2")],
                2: [(3.0, 5.0, AP_PORT, 0, "m2")],
            })

    def test_command_outside_frame_caught(self, cube3):
        with pytest.raises(ScheduleValidationError, match="outside frame"):
            executor(cube3, {"m": (0, 1)}, {
                0: [(18.0, 5.0, AP_PORT, 1, "m")],
                1: [(18.0, 5.0, 0, AP_PORT, "m")],
            })

    def test_wrong_node_rejected(self, cube3):
        """Node 0's setting filed under node 3 chains nowhere."""
        with pytest.raises(ScheduleValidationError, match="broken at node 0"):
            executor(cube3, {"m": (0, 1)}, {
                3: [(0.0, 5.0, AP_PORT, 1, "m")],
                1: [(0.0, 5.0, 0, AP_PORT, "m")],
            })

    def test_parallel_disjoint_channels_ok(self, cube3):
        run = executor(cube3, {"m1": (1, 2), "m2": (4, 0)}, {
            0: [(0.0, 5.0, 1, 2, "m1"), (0.0, 5.0, 4, AP_PORT, "m2")],
            1: [(0.0, 5.0, AP_PORT, 0, "m1")],
            2: [(0.0, 5.0, 0, AP_PORT, "m1")],
            4: [(0.0, 5.0, AP_PORT, 0, "m2")],
        }, frame=10.0)
        assert run.circuits["m1"] == (Circuit(0.0, 5.0, (1, 0, 2)),)
        assert run.commands_placed == 5
        run.run(invocations=6, warmup=2)


class TestReplaySchedule:
    def test_replays_compiled_omega(self, cube3):
        """Every command of a compiled Ω lands on a circuit, and each
        circuit runs along its message's assigned path."""
        timing = TFGTiming(chain_tfg(4, 400, 1280), 128.0, speeds=40.0)
        allocation = {"t0": 0, "t1": 1, "t2": 3, "t3": 7}
        routing = compile_schedule(timing, cube3, allocation, tau_in=40.0)
        run = ScheduledRoutingExecutor(routing, timing, cube3, allocation)
        assert run.commands_placed == routing.schedule.num_commands
        for name, circuits in run.circuits.items():
            assert [c.path for c in circuits] == [
                s.path for s in routing.schedule.slots[name]
            ]


class TestMalformedOmega:
    """Each way Ω can fail to chain into circuits is a typed error at
    construction, before anything runs."""

    def reject(self, cube3, match, messages, commands):
        with pytest.raises(ScheduleValidationError, match=match):
            executor(cube3, messages, commands)

    def test_missing_node(self, cube3):
        self.reject(cube3, "broken at node 1", {"m": (0, 3)}, {
            0: [(0.0, 5.0, AP_PORT, 1, "m")],
            3: [(0.0, 5.0, 1, AP_PORT, "m")],
        })

    def test_wrong_input_port(self, cube3):
        self.reject(cube3, "node 1, no command takes input 0", {"m": (0, 3)}, {
            0: [(0.0, 5.0, AP_PORT, 1, "m")],
            1: [(0.0, 5.0, 5, 3, "m")],
            3: [(0.0, 5.0, 1, AP_PORT, "m")],
        })

    def test_node_visited_twice(self, cube3):
        self.reject(cube3, "visits node 0 twice", {"m": (0, 2)}, {
            0: [(0.0, 5.0, AP_PORT, 1, "m"), (0.0, 5.0, 2, AP_PORT, "m")],
            1: [(0.0, 5.0, 0, 3, "m")],
            3: [(0.0, 5.0, 1, 2, "m")],
            2: [(0.0, 5.0, 3, 0, "m")],
        })

    def test_chain_ends_away_from_destination(self, cube3):
        self.reject(cube3, "ends at node 1, not at the destination 3",
                    {"m": (0, 3)}, {
                        0: [(0.0, 5.0, AP_PORT, 1, "m")],
                        1: [(0.0, 5.0, 0, AP_PORT, "m")],
                    })

    def test_command_left_over(self, cube3):
        self.reject(cube3, "on no circuit", {"m": (0, 1)}, {
            0: [(0.0, 5.0, AP_PORT, 1, "m")],
            1: [(0.0, 5.0, 0, AP_PORT, "m")],
            2: [(0.0, 5.0, AP_PORT, 0, "m")],
        })

    def test_message_the_tfg_lacks(self, cube3):
        self.reject(cube3, "'ghost', which is no routed message", {"m": (0, 1)}, {
            0: [(0.0, 5.0, AP_PORT, 1, "m"), (6.0, 5.0, AP_PORT, 1, "ghost")],
            1: [(0.0, 5.0, 0, AP_PORT, "m")],
        })

    def test_local_message(self, cube3):
        self.reject(cube3, "'l', which is no routed message",
                    {"m": (0, 1), "l": (2, 2)}, {
                        0: [(0.0, 5.0, AP_PORT, 1, "m")],
                        1: [(0.0, 5.0, 0, AP_PORT, "m")],
                        2: [(0.0, 5.0, AP_PORT, 0, "l")],
                    })

    def test_circuits_short_of_the_demand(self, cube3):
        with pytest.raises(
            ScheduleValidationError,
            match="'m': circuits carry 5.000000 of 10.000000",
        ):
            executor(cube3, {"m": (0, 1)}, {
                0: [(0.0, 5.0, AP_PORT, 1, "m")],
                1: [(0.0, 5.0, 0, AP_PORT, "m")],
            }, demand={"m": 10.0})

    def test_routed_message_without_circuit(self, cube3):
        self.reject(cube3, "routed message 'n' has no circuit",
                    {"m": (0, 1), "n": (0, 2)}, {
                        0: [(0.0, 5.0, AP_PORT, 1, "m")],
                        1: [(0.0, 5.0, 0, AP_PORT, "m")],
                    })
