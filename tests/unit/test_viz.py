"""Unit tests for the plain-text visualization helpers."""

import pytest

from repro.core.compiler import compile_schedule
from repro.tfg import TFGTiming
from repro.tfg.synth import chain_tfg
from repro.viz import link_occupancy_chart, node_gantt
from repro.viz.gantt import _bar


@pytest.fixture()
def compiled(cube3):
    timing = TFGTiming(chain_tfg(4, 400, 1280), 128.0, speeds=40.0)
    allocation = {"t0": 0, "t1": 1, "t2": 3, "t3": 7}
    return compile_schedule(timing, cube3, allocation, tau_in=40.0)


class TestBar:
    def test_full_frame(self):
        assert _bar([(0.0, 10.0)], frame=10.0, width=8) == "########"

    def test_half_frame(self):
        bar = _bar([(0.0, 5.0)], frame=10.0, width=8)
        assert bar == "####    "

    def test_empty(self):
        assert _bar([], frame=10.0, width=4) == "    "

    def test_short_slot_still_visible(self):
        bar = _bar([(4.9, 5.0)], frame=10.0, width=10)
        assert "#" in bar


class TestNodeGantt:
    def test_renders_every_connection(self, compiled):
        node = next(iter(compiled.schedule.node_schedules))
        text = node_gantt(compiled.schedule, node)
        assert f"node {node}" in text
        commands = compiled.schedule.node_schedules[node].commands
        for command in commands:
            assert command.message in text

    def test_node_without_commands(self, compiled):
        # Node 6 hosts no task and lies on no chain path.
        text = node_gantt(compiled.schedule, 6)
        assert "no switching commands" in text

    def test_bars_bounded_by_width(self, compiled):
        node = next(iter(compiled.schedule.node_schedules))
        text = node_gantt(compiled.schedule, node, width=32)
        for line in text.splitlines()[1:]:
            bar = line.split("|")[1]
            assert len(bar) == 32


class TestLinkOccupancy:
    def test_lists_busiest_first(self, compiled):
        text = link_occupancy_chart(compiled.schedule)
        lines = text.splitlines()[1:]
        percents = [float(line.split("%")[0].split()[-1]) for line in lines]
        assert percents == sorted(percents, reverse=True)

    def test_top_limits_rows(self, compiled):
        text = link_occupancy_chart(compiled.schedule, top=2)
        assert len(text.splitlines()) == 3

    def test_fractions_below_one(self, compiled):
        text = link_occupancy_chart(compiled.schedule)
        for line in text.splitlines()[1:]:
            fraction = float(line.split("%")[0].split()[-1])
            assert 0.0 < fraction <= 100.0
