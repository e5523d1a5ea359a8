"""Guard: the disabled (null) tracer must stay effectively free.

The tracing hooks sit on the kernel's hottest paths — every ``schedule``,
``step``, grant, and release tests one boolean.  This bench re-runs the
wormhole simulation of DVB(5) on the 6-cube at B = 128 bytes/us and load
0.5 (≈ 17 ms of kernel traffic a run on a 2-vCPU machine) against *bare*
kernel subclasses with the tracing branches deleted (a reconstruction of
the pre-instrumentation hot path) and asserts the instrumented-but-null
version costs less than 2 % more wall time.  The overhead is the median
null/bare ratio of 101 back-to-back pairs: each ratio is taken within
≈ 35 ms, so the machine's drift cancels in it, and the median drops the
pairs a burst of noise lands on (docs/tracing.md has its readings).

The tolerance can be relaxed on noisy shared runners via the
``TRACE_OVERHEAD_TOL`` environment variable (e.g. ``0.05`` for 5%).
"""

from __future__ import annotations

import heapq
import os
import statistics
import time

import repro.wormhole.simulator as simulator_module
from repro.errors import InvalidDelayError, SimulationError
from repro.experiments import standard_setup
from repro.sim import Environment, Resource
from repro.topology import binary_hypercube
from repro.wormhole import WormholeSimulator

BANDWIDTH = 128.0
LOAD = 0.5
INVOCATIONS = 64
WARMUP = 8

#: Back-to-back (bare, null) timing pairs; the order flips every pair.
PAIRS = 101

TOLERANCE = float(os.environ.get("TRACE_OVERHEAD_TOL", "0.02"))


class BareEnvironment(Environment):
    """The kernel agenda with its tracing branch deleted (the untraced
    ``run`` loop has none): an entry due now joins the FIFO lane, a later
    one the heap."""

    def call_later(self, delay, fn, arg):
        if not delay >= 0:
            raise InvalidDelayError(f"cannot schedule into the past: delay={delay}")
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
        while self._queue and len(self._holders) < self.capacity and not self._failed:
            self._grant(self._queue.popleft())

    def _grant(self, claim):
        self._holders.append(claim)
        claim.grant_time = self.env._now
        if claim.on_grant is not None:
            self.env.call_later(0.0, claim.on_grant, claim)


def _wr_run_seconds(simulator, tau_in, monkeypatch, bare: bool) -> float:
    """Wall seconds of one WR run, optionally on the bare kernel."""
    with monkeypatch.context() as patch:
        if bare:
            patch.setattr(simulator_module, "Environment", BareEnvironment)
            patch.setattr(simulator_module, "Resource", BareResource)
        start = time.perf_counter()
        result = simulator.run(tau_in, invocations=INVOCATIONS, warmup=WARMUP)
        elapsed = time.perf_counter() - start
    assert result.has_oi()  # the run contends: grants queue and wait
    return elapsed


def test_null_tracer_overhead_under_2_percent(benchmark, dvb, monkeypatch):
    setup = standard_setup(dvb, binary_hypercube(6), BANDWIDTH)
    simulator = WormholeSimulator(setup.timing, setup.topology, setup.allocation)
    tau_in = setup.tau_in_for_load(LOAD)

    # Warm both paths (bytecode caches, allocator pools) before timing.
    _wr_run_seconds(simulator, tau_in, monkeypatch, bare=True)
    _wr_run_seconds(simulator, tau_in, monkeypatch, bare=False)

    ratios, bare_times, null_times = [], [], []
    for pair in range(PAIRS):
        bare_first = pair % 2 == 0
        first = _wr_run_seconds(simulator, tau_in, monkeypatch, bare=bare_first)
        second = _wr_run_seconds(simulator, tau_in, monkeypatch, bare=not bare_first)
        bare, null = (first, second) if bare_first else (second, first)
        ratios.append(null / bare)
        bare_times.append(bare)
        null_times.append(null)
    bare, null = statistics.median(bare_times), statistics.median(null_times)
    overhead = statistics.median(ratios) - 1.0

    def report():
        return {"bare_s": bare, "null_tracer_s": null, "overhead": overhead}

    stats = benchmark.pedantic(report, rounds=1, iterations=1)
    print(
        f"\nnull-tracer overhead on the WR run: bare={bare * 1e3:.2f} ms, "
        f"instrumented(null)={null * 1e3:.2f} ms, "
        f"overhead={overhead:+.2%} (tolerance {TOLERANCE:.0%})"
    )
    assert stats["overhead"] < TOLERANCE, (
        f"null tracer costs {overhead:.2%} on the WR run "
        f"(budget {TOLERANCE:.0%}); a tracing hook leaked out of its "
        "`if tracer.enabled` guard"
    )
