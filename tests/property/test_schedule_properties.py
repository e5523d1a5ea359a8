"""Property-based tests of the full scheduled-routing pipeline.

The central property: for ANY workload, allocation and period, the
compiler either raises a typed :class:`~repro.errors.SchedulingError` or
produces a schedule that passes every machine check — slot coverage, link
exclusivity, node-schedule consistency (checked by ``build_schedule``),
and a DES replay of Ω (every command on a circuit) with constant
throughput.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core.compiler import CompilerConfig, compile_schedule
from repro.core.executor import ScheduledRoutingExecutor
from repro.core.timebounds import compute_time_bounds
from repro.errors import SchedulingError
from repro.tfg import TFGTiming, random_layered_tfg
from repro.topology import GeneralizedHypercube, Torus, binary_hypercube

TOPOLOGIES = [
    binary_hypercube(3),
    binary_hypercube(4),
    GeneralizedHypercube((4, 4)),
    Torus((4, 4)),
]


@st.composite
def pipeline_case(draw):
    tfg = random_layered_tfg(
        seed=draw(st.integers(0, 5000)),
        layers=draw(st.integers(2, 3)),
        width=draw(st.integers(1, 3)),
        edge_probability=draw(st.floats(0.3, 1.0)),
        ops_range=(200.0, 800.0),
        size_range=(128.0, 2048.0),
    )
    topo = draw(st.sampled_from(TOPOLOGIES))
    rng = random.Random(draw(st.integers(0, 5000)))
    nodes = rng.sample(range(topo.num_nodes),
                       min(tfg.num_tasks, topo.num_nodes))
    # Allow node sharing when tasks outnumber nodes.
    allocation = {
        task.name: nodes[i % len(nodes)]
        for i, task in enumerate(tfg.tasks)
    }
    # Window must cover the longest message even when tau_m > tau_c.
    tau_c = max(t.ops for t in tfg.tasks) / 20.0
    tau_m = max(m.size_bytes for m in tfg.messages) / 128.0
    timing = TFGTiming(
        tfg, bandwidth=128.0, speeds=20.0,
        message_window=max(tau_c, tau_m),
    )
    load = draw(st.floats(0.25, 1.0))
    # tau_in must be at least the window (and tau_c).
    tau_in = max(timing.tau_c / load, timing.message_window)
    return timing, topo, allocation, tau_in


class TestCompilerTotalCorrectness:
    @given(pipeline_case())
    @settings(max_examples=25)
    def test_compile_is_correct_or_raises_typed_error(self, case):
        timing, topo, allocation, tau_in = case
        try:
            routing = compile_schedule(
                timing, topo, allocation, tau_in,
                CompilerConfig(max_paths=16, max_restarts=1, retries=1),
            )
        except SchedulingError as error:
            assert error.stage in {
                "utilization", "interval-allocation", "interval-scheduling",
                "scheduling",
            }
            return
        # build_schedule checked the slots as it built Omega; validate()
        # proves all four invariants of the Omega it holds.
        routing.schedule.validate()
        # DES replay of Omega: every command on a circuit, constant
        # throughput, no contention, deadlines met.
        executor = ScheduledRoutingExecutor(routing, timing, topo, allocation)
        assert executor.commands_placed == routing.schedule.num_commands
        result = executor.run(invocations=10, warmup=2)
        assert not result.has_oi()

    @given(pipeline_case())
    @settings(max_examples=25)
    def test_slot_durations_cover_each_message_exactly(self, case):
        timing, topo, allocation, tau_in = case
        try:
            routing = compile_schedule(
                timing, topo, allocation, tau_in,
                CompilerConfig(max_paths=16, max_restarts=1),
            )
        except SchedulingError:
            return
        for name, slots in routing.schedule.slots.items():
            total = sum(s.duration for s in slots)
            assert abs(total - timing.xmit_time(name)) <= 1e-6 * max(
                1.0, timing.xmit_time(name)
            )
            bound = routing.bounds.bounds[name]
            for slot in slots:
                assert bound.contains(slot.start, slot.end)


class TestTimeBoundProperties:
    @given(pipeline_case())
    @settings(max_examples=30)
    def test_windows_partition_consistently(self, case):
        timing, topo, allocation, tau_in = case
        bounds = compute_time_bounds(timing, tau_in)
        lengths = bounds.intervals.lengths
        assert abs(sum(lengths) - tau_in) <= 1e-6
        for name in bounds.order:
            b = bounds.bounds[name]
            # Window length equals the configured message window.
            assert abs(b.active_length - timing.message_window) <= 1e-6
            # Duration always fits the window.
            assert b.duration <= b.active_length + 1e-9
            # Activity row agrees with the windows.
            active_len = sum(
                lengths[k]
                for k in range(bounds.intervals.count)
                if bounds.activity[bounds.index[name], k]
            )
            assert abs(active_len - b.active_length) <= 1e-6
