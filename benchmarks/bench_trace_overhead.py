"""Guard: the disabled (null) tracer must stay effectively free.

The tracing hooks sit on the kernel's hottest paths — every ``schedule``,
``step``, grant, and release tests one boolean.  This bench re-runs the
SR replay of ``bench_fault_recovery``'s 6-cube scenario against *bare*
kernel subclasses with the tracing branches deleted (a reconstruction of
the pre-instrumentation hot path) and asserts the instrumented-but-null
version costs less than 2% more wall time.

The tolerance can be relaxed on noisy shared runners via the
``TRACE_OVERHEAD_TOL`` environment variable (e.g. ``0.05`` for 5%).
"""

from __future__ import annotations

import heapq
import os
import time

import repro.core.executor as executor_module
from benchmarks.conftest import COMPILER
from repro.core.compiler import compile_schedule
from repro.core.executor import ScheduledRoutingExecutor
from repro.errors import SimulationError
from repro.experiments import standard_setup
from repro.sim import Environment, Resource
from repro.topology import binary_hypercube

#: Matches the 6-cube scenario of bench_fault_recovery.
BANDWIDTH = 128.0
LOAD = 0.5
INVOCATIONS = 64
WARMUP = 8

#: Interleaved timing repetitions per variant; min-of-N defeats most
#: scheduler noise without needing a quiet machine.
REPEATS = 7

TOLERANCE = float(os.environ.get("TRACE_OVERHEAD_TOL", "0.02"))


class BareEnvironment(Environment):
    """The kernel agenda with its tracing branch deleted (the untraced
    ``run`` loop has none): an entry due now joins the FIFO lane, a later
    one the heap."""

    def call_later(self, delay, fn, arg):
        if not delay >= 0:
            raise SimulationError(f"cannot schedule into the past: delay={delay}")
        now = self._now
        due = now + delay
        if due == now:
            self._lane.append((due, self._next_id, fn, arg))
        else:
            heapq.heappush(self._agenda, (due, self._next_id, fn, arg))
        self._next_id += 1


class BareResource(Resource):
    """Grant/release without the occupancy/blocked span emission.  A grant
    on the spot is ``Resource.claim``'s own, which traces nothing."""

    def release(self, claim):
        try:
            self._holders.remove(claim)
        except ValueError:
            raise SimulationError(
                f"release of a claim not holding {self.name or 'resource'}"
            ) from None
        while self._queue and self.count < self.capacity and not self._failed:
            self._grant(self._queue.popleft())

    def _grant(self, claim):
        self._holders.append(claim)
        claim.grant_time = self.env.now
        if claim.on_grant is not None:
            self.env.call_later(0.0, claim.on_grant, claim)


def _sr_replay_seconds(executor, monkeypatch, bare: bool) -> float:
    """Wall seconds of one SR replay, optionally on the bare kernel."""
    with monkeypatch.context() as patch:
        if bare:
            patch.setattr(executor_module, "Environment", BareEnvironment)
            patch.setattr(executor_module, "Resource", BareResource)
        start = time.perf_counter()
        result = executor.run(invocations=INVOCATIONS, warmup=WARMUP)
        elapsed = time.perf_counter() - start
    assert not result.has_oi()
    return elapsed


def test_null_tracer_overhead_under_2_percent(benchmark, dvb, monkeypatch):
    setup = standard_setup(dvb, binary_hypercube(6), BANDWIDTH)
    routing = compile_schedule(
        setup.timing, setup.topology, setup.allocation,
        setup.tau_in_for_load(LOAD), COMPILER,
    )
    executor = ScheduledRoutingExecutor(
        routing, setup.timing, setup.topology, setup.allocation
    )

    # Warm both paths (bytecode caches, allocator pools) before timing.
    _sr_replay_seconds(executor, monkeypatch, bare=True)
    _sr_replay_seconds(executor, monkeypatch, bare=False)

    bare_times, null_times = [], []
    for _ in range(REPEATS):
        bare_times.append(_sr_replay_seconds(executor, monkeypatch, bare=True))
        null_times.append(_sr_replay_seconds(executor, monkeypatch, bare=False))
    bare, null = min(bare_times), min(null_times)
    overhead = null / bare - 1.0

    def report():
        return {"bare_s": bare, "null_tracer_s": null, "overhead": overhead}

    stats = benchmark.pedantic(report, rounds=1, iterations=1)
    print(
        f"\nnull-tracer overhead on the SR replay: bare={bare * 1e3:.2f} ms, "
        f"instrumented(null)={null * 1e3:.2f} ms, "
        f"overhead={overhead:+.2%} (tolerance {TOLERANCE:.0%})"
    )
    assert stats["overhead"] < TOLERANCE, (
        f"null tracer costs {overhead:.2%} on the SR replay "
        f"(budget {TOLERANCE:.0%}); a tracing hook leaked out of its "
        "`if tracer.enabled` guard"
    )
