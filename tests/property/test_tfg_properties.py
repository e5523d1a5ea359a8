"""Property-based tests of TFG structure and timing analysis."""

from hypothesis import given, strategies as st

from repro.tfg import TFGTiming, random_layered_tfg


tfgs = st.builds(
    random_layered_tfg,
    seed=st.integers(min_value=0, max_value=10_000),
    layers=st.integers(min_value=2, max_value=4),
    width=st.integers(min_value=1, max_value=4),
    edge_probability=st.floats(min_value=0.0, max_value=1.0),
)


class TestStructure:
    @given(tfgs)
    def test_topological_order_respects_messages(self, tfg):
        order = {name: i for i, name in enumerate(tfg.topological_order())}
        for message in tfg.messages:
            assert order[message.src] < order[message.dst]

    @given(tfgs)
    def test_degree_bookkeeping(self, tfg):
        total_out = sum(len(tfg.messages_out(t.name)) for t in tfg.tasks)
        total_in = sum(len(tfg.messages_in(t.name)) for t in tfg.tasks)
        assert total_out == total_in == tfg.num_messages


def make_timing(tfg, bandwidth):
    """Timing with an always-valid window (tau_m may exceed tau_c when the
    drawn bandwidth is low, which the constructor rightly rejects for the
    default window)."""
    tau_c = max(t.ops for t in tfg.tasks) / 10.0
    tau_m = max(m.size_bytes for m in tfg.messages) / bandwidth
    return TFGTiming(
        tfg, bandwidth, speeds=10.0, message_window=max(tau_c, tau_m)
    )


class TestTiming:
    @given(tfgs, st.floats(min_value=16.0, max_value=256.0))
    def test_asap_consistency(self, tfg, bandwidth):
        timing = make_timing(tfg, bandwidth)
        schedule = timing.asap_schedule()
        window = timing.message_window
        for task in tfg.tasks:
            start, finish = schedule[task.name]
            assert abs((finish - start) - timing.exec_time(task.name)) <= 1e-9
            for message in tfg.messages_in(task.name):
                assert start >= schedule[message.src][1] + window - 1e-9

    @given(tfgs, st.floats(min_value=16.0, max_value=256.0))
    def test_critical_path_bounds_asap(self, tfg, bandwidth):
        timing = make_timing(tfg, bandwidth)
        cp = timing.critical_path()
        assert cp.length <= timing.asap_latency() + 1e-9
        # The chain alternates task, message, task, ...
        assert len(cp.elements) % 2 == 1

    @given(tfgs)
    def test_tau_c_is_max_exec(self, tfg):
        timing = make_timing(tfg, 64.0)
        assert timing.tau_c == max(
            timing.exec_time(t.name) for t in tfg.tasks
        )
