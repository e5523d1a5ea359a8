"""Wrapped-window cases of ``ScheduledRoutingExecutor.absolute_slots``.

A message whose window wraps the frame edge (``deadline < release``) has
circuits on both sides of the wrap: circuits at frame instants *at or
after* the release belong to the window's head (offset ``s - r`` into
the invocation), circuits *before* the release belong to the wrapped
tail and come ``(tau_in - r) + s`` in.  These tests pin that arithmetic
with hand-built fixtures small enough to check by hand, complementing
the compiled-schedule invariants in ``test_core_executor.py``.
"""

from types import SimpleNamespace

import pytest

from repro.core.executor import ScheduledRoutingExecutor
from repro.core.switching import AP_PORT, NodeSchedule, SwitchCommand
from repro.topology import binary_hypercube


def _executor(tau_in, release, slot_specs, src_finish):
    """An executor over a single message ``m`` from node 0 to node 1 with
    handcrafted frames.

    ``slot_specs`` is a list of ``(start, duration)`` circuits of Ω;
    ``src_finish`` is the source task's ASAP finish instant.
    """
    def commands(input_port, output_port):
        return tuple(
            SwitchCommand(start, duration, input_port, output_port, "m")
            for start, duration in slot_specs
        )

    schedule = SimpleNamespace(node_schedules={
        0: NodeSchedule(0, commands(AP_PORT, 1)),
        1: NodeSchedule(1, commands(0, AP_PORT)),
    })
    duration = sum(duration for _, duration in slot_specs)
    routing = SimpleNamespace(
        tau_in=tau_in,
        bounds=SimpleNamespace(bounds={
            "m": SimpleNamespace(release=release, duration=duration),
        }),
        schedule=schedule,
    )
    message = SimpleNamespace(src="s", dst="t", name="m")
    timing = SimpleNamespace(
        tfg=SimpleNamespace(messages=(message,), message=lambda name: message),
        asap_schedule=lambda: {"s": (0.0, src_finish), "t": (30.0, 40.0)},
    )
    return ScheduledRoutingExecutor(
        routing, timing, binary_hypercube(1), {"s": 0, "t": 1}
    )


class TestUnwrappedWindow:
    def test_slot_at_release_starts_at_absolute_release(self):
        executor = _executor(10.0, release=7.0, slot_specs=[(7.0, 2.0)],
                             src_finish=7.0)
        assert executor.absolute_slots("m", 0) == [(7.0, 9.0)]

    def test_slot_after_release_keeps_gap(self):
        executor = _executor(10.0, release=2.0, slot_specs=[(5.0, 1.0)],
                             src_finish=2.0)
        # Offset 5 - 2 = 3 into the window.
        assert executor.absolute_slots("m", 0) == [(5.0, 6.0)]
        assert executor.absolute_slots("m", 4) == [(45.0, 46.0)]


class TestWrappedWindow:
    def test_slot_before_release_lands_after_frame_edge(self):
        # Window wraps: release 7, so a frame slot at 0.5 belongs to the
        # *next* frame's head — (10 - 7) + 0.5 = 3.5 into the window.
        executor = _executor(
            10.0, release=7.0,
            slot_specs=[(8.0, 1.0), (0.5, 1.0)],
            src_finish=7.0,
        )
        assert executor.absolute_slots("m", 0) == [
            (10.5, 11.5),    # wrapped slot: 3.5 after release
            (8.0, 9.0),      # head slot: 1.0 after release
        ]

    def test_wrapped_slots_shift_by_period(self):
        executor = _executor(
            10.0, release=7.0,
            slot_specs=[(8.0, 1.0), (0.5, 1.0)],
            src_finish=7.0,
        )
        j0 = executor.absolute_slots("m", 0)
        j3 = executor.absolute_slots("m", 3)
        for (a0, b0), (a3, b3) in zip(j0, j3):
            assert a3 - a0 == pytest.approx(30.0)
            assert b3 - b0 == pytest.approx(30.0)

    def test_wrap_ordering_is_schedule_order_not_time_order(self):
        # Circuits come back in frame order even when the wrapped head
        # executes later in absolute time.
        executor = _executor(
            10.0, release=6.0,
            slot_specs=[(1.0, 2.0), (8.0, 1.0)],
            src_finish=6.0,
        )
        # Slot at 1.0 wraps: (10 - 6) + 1 = 5 after the release at 6.0
        # -> [11, 13); slot at 8.0 is in the head: 8 - 6 = 2 -> [8, 9).
        occurrences = executor.absolute_slots("m", 0)
        assert occurrences == [(11.0, 13.0), (8.0, 9.0)]
        assert occurrences != sorted(occurrences)

    def test_slot_exactly_at_frame_origin_wraps(self):
        executor = _executor(
            10.0, release=4.0, slot_specs=[(0.0, 1.0)], src_finish=4.0,
        )
        # (10 - 4) + 0 = 6 into the window.
        assert executor.absolute_slots("m", 0) == [(10.0, 11.0)]

    def test_release_shift_moves_window_start(self):
        # The source finishing later than the frame release (different
        # invocation anchoring) shifts everything by the ASAP finish.
        executor = _executor(
            10.0, release=7.0, slot_specs=[(0.5, 1.0)], src_finish=17.0,
        )
        # abs_release = j * 10 + 17; offset (10 - 7) + 0.5 = 3.5.
        assert executor.absolute_slots("m", 0) == [(20.5, 21.5)]
        assert executor.absolute_slots("m", 1) == [(30.5, 31.5)]
