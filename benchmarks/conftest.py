"""Shared machinery for the figure-reproduction benchmarks.

Each ``bench_fig*.py`` regenerates one figure of the paper as a printed
table (the same series the figure plots).  The heavy sweep runs exactly
once per bench (``benchmark.pedantic(rounds=1)``) — the interesting output
is the table, not the wall-clock statistics; micro-benchmarks of the
library's hot paths live in ``bench_micro_*.py`` and use normal rounds.
"""

from __future__ import annotations

import pytest

from repro.core.compiler import CompilerConfig
from repro.experiments import pipeline_comparison, utilization_comparison
from repro.metrics import load_sweep
from repro.report import format_spike, format_table
from repro.tfg import dvb_tfg

#: The benchmark workload: DVB with 5 object models (see DESIGN.md — the
#: paper's Fig. 1 draws a small model count; 5 reproduces the paper's
#: feasibility shapes on every topology).
N_MODELS = 5

#: The paper sweeps twelve input periods between tau_c and 5 tau_c.
LOADS = load_sweep(12)

#: Invocations simulated per wormhole run (after warm-up the OI cycle of
#: Section 3 repeats within this horizon).
INVOCATIONS = 48
WARMUP = 12

COMPILER = CompilerConfig(seed=0, max_paths=48, max_restarts=4, retries=2)


@pytest.fixture(scope="session")
def dvb():
    return dvb_tfg(N_MODELS)


def print_utilization_figure(title, points):
    """Fig. 5/6 style: U for LSD->MSD and AssignPaths per load."""
    rows = [
        (f"{p.load:.4f}", f"{p.u_lsd:.4f}", f"{p.u_heuristic:.4f}",
         "yes" if p.u_heuristic <= 1.0 + 1e-9 else "no")
        for p in points
    ]
    print()
    print(format_table(
        ("load", "U LSD->MSD", "U AssignPaths", "SR attemptable"),
        rows, title=title,
    ))


def print_pipeline_figure(title, points):
    """Fig. 7-10 style: WR spikes + SR status per load."""
    rows = []
    for p in points:
        if p.wr_deadlock:
            wr_thr = wr_lat = "deadlock"
            wr_oi = "-"
        else:
            wr_thr = format_spike(p.wr_throughput)
            wr_lat = format_spike(p.wr_latency)
            wr_oi = "yes" if p.wr_oi else "no"
        rows.append((
            f"{p.load:.4f}",
            wr_thr,
            wr_lat,
            wr_oi,
            str(p.wr_recoveries),
            p.sr_status,
            "-" if p.sr_throughput is None else f"{p.sr_throughput:.3f}",
            "-" if p.sr_latency is None else f"{p.sr_latency:.3f}",
        ))
    print()
    print(format_table(
        ("load", "WR thr (min/avg/max)", "WR lat (min/avg/max)", "WR OI",
         "WR rcv", "SR status", "SR thr", "SR lat"),
        rows, title=title,
    ))


def run_utilization_bench(benchmark, dvb, topology, bandwidth, title):
    from repro.experiments import standard_setup

    setup = standard_setup(dvb, topology, bandwidth)

    def sweep():
        return utilization_comparison(setup, LOADS, seed=0)

    points = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_utilization_figure(title, points)
    # The paper's headline for Figs. 5/6: the heuristic never loses.
    assert all(p.u_heuristic <= p.u_lsd + 1e-9 for p in points)
    return points


def run_pipeline_bench(benchmark, dvb, topology, bandwidth, title,
                       virtual_channels=1):
    from repro.experiments import standard_setup

    setup = standard_setup(dvb, topology, bandwidth)

    def sweep():
        return pipeline_comparison(
            setup, LOADS, invocations=INVOCATIONS, warmup=WARMUP,
            compiler_config=COMPILER, virtual_channels=virtual_channels,
        )

    points = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_pipeline_figure(title, points)
    # Wherever SR compiled, it must deliver exactly the input rate.
    for p in points:
        if p.sr_feasible and p.sr_throughput is not None:
            assert abs(p.sr_throughput - 1.0) < 1e-6
    return points
