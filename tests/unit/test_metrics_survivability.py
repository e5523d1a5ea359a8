"""Unit tests for survivability metrics (outage accounting)."""

import pytest

from repro.core.compiler import CompilerConfig, compile_schedule
from repro.core.executor import ScheduledRoutingExecutor
from repro.metrics.survivability import outage_misses


@pytest.fixture()
def compiled(small_setup):
    tau_in = small_setup.tau_in_for_load(0.5)
    routing = compile_schedule(
        small_setup.timing,
        small_setup.topology,
        small_setup.allocation,
        tau_in,
        CompilerConfig(seed=0),
    )
    executor = ScheduledRoutingExecutor(
        routing, small_setup.timing, small_setup.topology,
        small_setup.allocation,
    )
    return routing, executor, small_setup


def _used_link(routing):
    for slots in routing.schedule.slots.values():
        for slot in slots:
            return slot.links[0]
    raise AssertionError


class TestOutageMisses:
    def test_counts_overlapping_instances(self, compiled):
        routing, executor, _ = compiled
        link = _used_link(routing)
        tau_in = routing.tau_in
        window = (0.0, 4 * tau_in)
        report = outage_misses(executor, [link], window, invocations=12)
        assert report.num_missed_deliveries > 0
        assert report.num_missed_invocations > 0
        assert all(j < 12 for j in report.missed_invocations)
        # Every reported miss really overlaps the window on the dead link.
        for name, j in report.missed_instances:
            slots = executor.absolute_slots(name, j)
            assert any(s < window[1] and e > window[0] for s, e in slots)

    def test_empty_window_kills_nothing(self, compiled):
        routing, executor, _ = compiled
        link = _used_link(routing)
        # A window far beyond the simulated horizon.
        report = outage_misses(
            executor, [link], (1e9, 1e9 + 1.0), invocations=12
        )
        assert report.num_missed_deliveries == 0

    def test_unused_link_kills_nothing(self, compiled):
        routing, executor, setup = compiled
        used = {
            link
            for slots in routing.schedule.slots.values()
            for slot in slots
            for link in slot.links
        }
        spare = next(
            link for link in setup.topology.links if link not in used
        )
        report = outage_misses(
            executor, [spare], (0.0, 1e9), invocations=12
        )
        assert report.num_missed_deliveries == 0
