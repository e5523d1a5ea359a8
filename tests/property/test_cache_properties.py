"""Property-based tests of cache keys and entry round-trips.

Two invariants carry the whole caching design:

- the key is a pure function of the compile *inputs* — sensitive to
  every field, and stable across processes and hash seeds (the fuzzer's
  determinism leg compares every key in two processes:
  ``test_check_fuzz.py::TestDeterminismLeg``);
- a routing rebuilt from its cache entry is value-equal to the fresh
  compile (which is what lets ``compile_schedule`` return it as-is).
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.cache import entry_to_routing, routing_to_entry, schedule_cache_key
from repro.core.compiler import CompilerConfig, compile_schedule
from repro.errors import SchedulingError
from repro.tfg import TFGTiming, random_layered_tfg
from repro.topology import GeneralizedHypercube, binary_hypercube

TOPOLOGIES = [binary_hypercube(3), GeneralizedHypercube((4, 4))]

CONFIG = CompilerConfig(max_paths=12, max_restarts=1, retries=0)


@st.composite
def compiled_routing(draw):
    """(routing, topology, key) for a random feasible compile, else None."""
    tfg = random_layered_tfg(
        seed=draw(st.integers(0, 2000)),
        layers=draw(st.integers(2, 3)),
        width=draw(st.integers(1, 2)),
        edge_probability=draw(st.floats(0.4, 1.0)),
        ops_range=(200.0, 600.0),
        size_range=(128.0, 1024.0),
    )
    topo = draw(st.sampled_from(TOPOLOGIES))
    rng = random.Random(draw(st.integers(0, 2000)))
    nodes = rng.sample(range(topo.num_nodes),
                       min(tfg.num_tasks, topo.num_nodes))
    allocation = {
        task.name: nodes[i % len(nodes)]
        for i, task in enumerate(tfg.tasks)
    }
    tau_c = max(t.ops for t in tfg.tasks) / 20.0
    tau_m = max(m.size_bytes for m in tfg.messages) / 128.0
    timing = TFGTiming(tfg, 128.0, speeds=20.0,
                       message_window=max(tau_c, tau_m))
    tau_in = max(timing.tau_c / draw(st.floats(0.3, 0.9)),
                 timing.message_window)
    try:
        routing = compile_schedule(timing, topo, allocation, tau_in, CONFIG)
    except SchedulingError:
        return None
    key = schedule_cache_key(timing, topo, allocation, tau_in, CONFIG)
    return routing, topo, key


class TestEntryRoundtripProperties:
    @given(compiled_routing())
    @settings(max_examples=15)
    def test_entry_roundtrip_is_value_identity(self, case):
        if case is None:
            return
        routing, topo, key = case
        rebuilt = entry_to_routing(routing_to_entry(routing), topo, key)
        assert rebuilt.schedule == routing.schedule
        assert rebuilt.tau_in == routing.tau_in
        assert rebuilt.bounds == routing.bounds
        assert rebuilt.local_messages == routing.local_messages
        assert rebuilt.attempts == routing.attempts
        assert rebuilt.utilization.peak == routing.utilization.peak
        assert len(rebuilt.allocations) == len(routing.allocations)
        for mine, theirs in zip(rebuilt.allocations, routing.allocations):
            assert mine.subset == theirs.subset
            assert mine.allocation == theirs.allocation
            assert mine.load_factor == theirs.load_factor

    @given(compiled_routing())
    @settings(max_examples=15)
    def test_entry_is_json_stable(self, case):
        if case is None:
            return
        import json

        routing, topo, key = case
        entry = routing_to_entry(routing)
        wire = json.dumps(entry, sort_keys=True)
        rebuilt = entry_to_routing(json.loads(wire), topo, key)
        assert rebuilt.schedule == routing.schedule
