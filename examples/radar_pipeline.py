#!/usr/bin/env python3
"""Radar pipeline: compile-time feasibility analysis on a second workload.

A classic radar processing chain (ADC -> per-channel beamform / pulse
compression / doppler -> CFAR fusion -> tracking) put through the full
toolchain, demonstrating the layered compile-time verdicts:

1. **the static diagnoser** — assignment-invariant necessary conditions
   (windows, forced links, node and bisection cuts, network volume).  A
   point it refutes can never be scheduled, before any LP runs;
2. **the compiler** — the sufficient check: the diagnoser may pass while
   the LPs still prove the rate unreachable (necessary is not sufficient);
3. the compiled schedule, visualized as link-occupancy bars.

Run:  python examples/radar_pipeline.py
"""

from repro import (
    CompilerConfig,
    SchedulingError,
    binary_hypercube,
    compile_schedule,
    diagnose_instance,
    link_occupancy_chart,
    standard_setup,
)
from repro.report import format_table
from repro.tfg.radar import radar_tfg

LOADS = (0.3, 0.5, 0.7, 0.9, 1.0)


def main() -> None:
    tfg = radar_tfg(4)
    topology = binary_hypercube(5)  # 32 nodes for 15 tasks
    print(f"workload: {tfg!r} on {topology!r}\n")

    rows = []
    compiled = None
    for bandwidth in (64.0, 128.0):
        setup = standard_setup(tfg, topology, bandwidth=bandwidth)
        verdicts = []
        for load in LOADS:
            tau_in = setup.tau_in_for_load(load)
            diagnosis = diagnose_instance(
                setup.timing, topology, setup.allocation, tau_in
            )
            if diagnosis.refuted:
                kinds = sorted({r.kind for r in diagnosis.refutations})
                verdicts.append(f"{load:.1f}:refuted({','.join(kinds)})")
                continue
            try:
                routing = compile_schedule(
                    setup.timing, topology, setup.allocation, tau_in,
                    CompilerConfig(seed=0),
                )
                verdicts.append(f"{load:.1f}:OK")
                compiled = routing
            except SchedulingError as error:
                verdicts.append(f"{load:.1f}:{error.stage}")
        rows.append((f"{int(bandwidth)}", "  ".join(verdicts)))

    print(format_table(
        ("B (bytes/us)", "per-load verdict"),
        rows,
        title="Radar chain: diagnoser (necessary) vs compiler (sufficient)",
    ))
    print(
        "\n'refuted(kind)' = rejected by the static certificates alone; "
        "a stage name = the LP pipeline proved it; OK = schedule compiled "
        "and machine-validated."
    )

    if compiled is not None:
        print()
        print(link_occupancy_chart(compiled.schedule, width=48, top=6))


if __name__ == "__main__":
    main()
