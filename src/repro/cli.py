"""Command-line interface: ``repro-sr``.

Runs a figure-style experiment from the shell::

    repro-sr utilization --topology hypercube6 --bandwidth 64
    repro-sr pipeline --topology torus4x4x4 --bandwidth 128 --loads 0.5 1.0
    repro-sr compile --topology ghc444 --bandwidth 64 --load 0.5
    repro-sr matrix --jobs 4 --cache-dir ~/.cache/repro-schedules
    repro-sr diagnose --topology hypercube6 --models 16 --load 1.0 --wr
    repro-sr faults --topology 6cube --fail-links 1 --seed 0
    repro-sr trace --mode sr --load 0.5 --out trace.json
    repro-sr check omega.json --topology hypercube6
    repro-sr fuzz --count 24 --out fuzz-reproducers/
    repro-sr serve --port 8750 --workers 4 --cache-dir ~/.cache/repro-farm
    repro-sr submit --topology ghc444 --bandwidth 128 --load 0.5 --port 8750
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

# Only what building the parser needs is imported here, none of it numpy
# or ``repro.core``: each ``_cmd_*`` imports what it runs, so ``--help``
# and ``submit`` stay light and ``compile`` pays for no more than a
# compile.
from repro.errors import ReproError, RepairInfeasibleError, SchedulingError
from repro.experiments.setup import ALLOCATORS, InstanceSpec, normalized_load
from repro.metrics import load_sweep
from repro.report import format_spike, format_table
from repro.solvers import BACKEND_NAMES
from repro.tfg import dvb_tfg
from repro.topology import (
    STANDARD_TOPOLOGIES as TOPOLOGIES,
    TOPOLOGY_ALIASES,
    make_topology,
)


def _nonnegative_int(value: str) -> int:
    parsed = int(value)
    if parsed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {parsed}")
    return parsed


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--topology",
        choices=sorted(TOPOLOGIES) + sorted(TOPOLOGY_ALIASES),
        default="hypercube6",
    )
    parser.add_argument("--bandwidth", type=float, default=64.0)
    parser.add_argument("--models", type=int, default=8, help="DVB object models")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--allocator", choices=ALLOCATORS, default="sequential",
        help="task placement strategy (random/annealed honour --seed)",
    )
    parser.set_defaults(usage_error=parser.error)


def _add_lp_backend(parser: argparse.ArgumentParser, help: str) -> None:
    parser.add_argument(
        "--lp-backend", choices=BACKEND_NAMES, default="auto", help=help
    )


def _checked(args, make):
    """``make()``; a :class:`ValueError` it raises is a usage error (exit
    2) like any other bad argument, not a traceback with the exit code of
    "infeasible"."""
    try:
        return make()
    except ValueError as error:
        args.usage_error(str(error))


def _spec(args) -> InstanceSpec:
    """The instance the common arguments name."""
    return _checked(args, lambda: InstanceSpec(
        args.topology, args.bandwidth, args.models, args.allocator, args.seed
    ))


def _setup(args):
    return _spec(args).build()


def _setup_at_load(args):
    """The setup and its input period at ``--load`` (exit 2 on a load
    outside ``(0, 1]``)."""
    setup = _setup(args)
    return setup, _checked(args, lambda: setup.tau_in_for_load(args.load))


def _loads(args) -> list[float]:
    """``--loads`` (default: the paper's sweep), each held to the rule
    of ``--load``."""
    loads = args.loads or load_sweep()
    return _checked(args, lambda: [normalized_load(load) for load in loads])


def _schedule_file(args, read):
    """``read(args.schedule)``; a file that is missing or holds no
    loadable schedule is a usage error (exit 2), not a traceback."""
    try:
        return read(args.schedule)
    except (OSError, ValueError, LookupError, TypeError, ReproError) as error:
        args.usage_error(
            f"cannot read schedule {args.schedule}: "
            f"{type(error).__name__}: {error}"
        )


def _cmd_utilization(args) -> int:
    from repro.experiments.figures import utilization_comparison

    setup = _setup(args)
    loads = _loads(args)
    points = utilization_comparison(setup, loads, seed=args.seed)
    rows = [
        (f"{p.load:.4f}", f"{p.u_lsd:.4f}", f"{p.u_heuristic:.4f}")
        for p in points
    ]
    print(
        format_table(
            ("load", "U (LSD->MSD)", "U (AssignPaths)"),
            rows,
            title=f"{setup.topology.name} @ B={args.bandwidth} bytes/us",
        )
    )
    return 0


def _cmd_pipeline(args) -> int:
    from repro.core.compiler import CompilerConfig
    from repro.experiments.figures import pipeline_comparison

    setup = _setup(args)
    loads = _loads(args)
    points = pipeline_comparison(setup, loads, compiler_config=CompilerConfig(seed=args.seed))
    rows = []
    for p in points:
        rows.append(
            (
                f"{p.load:.4f}",
                "deadlock" if p.wr_deadlock else format_spike(p.wr_throughput),
                "-" if p.wr_deadlock else format_spike(p.wr_latency),
                "-" if p.wr_oi is None else ("yes" if p.wr_oi else "no"),
                p.sr_status,
                "-" if p.sr_throughput is None else f"{p.sr_throughput:.3f}",
                "-" if p.sr_latency is None else f"{p.sr_latency:.3f}",
            )
        )
    print(
        format_table(
            ("load", "WR thr", "WR lat", "WR OI", "SR status", "SR thr", "SR lat"),
            rows,
            title=f"DVB on {setup.topology.name} @ B={args.bandwidth} bytes/us",
        )
    )
    return 0


def _cmd_compile(args) -> int:
    from repro.core.compiler import CompilerConfig, compile_schedule

    setup, tau_in = _setup_at_load(args)
    cache = None
    if args.cache_dir is not None:
        from repro.cache import ScheduleCache

        cache = ScheduleCache(args.cache_dir)
    try:
        routing = compile_schedule(
            setup.timing,
            setup.topology,
            setup.allocation,
            tau_in,
            CompilerConfig(seed=args.seed, lp_backend=args.lp_backend),
            cache=cache,
        )
    except SchedulingError as error:
        print(f"infeasible at load {args.load}: {error}")
        return 1
    print(
        f"feasible: U={routing.utilization.peak:.4f}, "
        f"{len(routing.subsets)} maximal subsets, "
        f"{routing.schedule.num_commands} switching commands over "
        f"{len(routing.schedule.node_schedules)} nodes"
    )
    if cache is not None:
        hit = routing.extra.get("cache", {}).get("hit", False)
        print(f"cache: {'hit' if hit else 'miss'} ({args.cache_dir})")
    if args.export:
        from repro.core.io import save_schedule

        save_schedule(routing.schedule, args.export)
        print(f"schedule written to {args.export}")
    if args.gantt is not None:
        from repro.viz import node_gantt

        print()
        print(node_gantt(routing.schedule, args.gantt))
    return 0


def _cmd_matrix(args) -> int:
    from repro.core.compiler import CompilerConfig
    from repro.experiments.matrix import (
        format_matrix_result,
        run_feasibility_matrix,
    )

    loads = _loads(args)
    names = args.topologies or sorted(TOPOLOGIES)
    _checked(args, lambda: [  # every swept instance, held to the rules
        InstanceSpec(name, bandwidth, args.models, args.allocator, args.seed)
        for name in names
        for bandwidth in args.bandwidths
    ])
    topologies = [make_topology(name) for name in names]
    result = run_feasibility_matrix(
        dvb_tfg(args.models),
        topologies,
        args.bandwidths,
        loads,
        config=CompilerConfig(seed=args.seed, lp_backend=args.lp_backend),
        allocation=lambda tfg, topology: ALLOCATORS[args.allocator](
            tfg, topology, args.seed
        ),
        jobs=args.jobs,
        cache=args.cache_dir,
        analyze=args.check,
    )
    print(format_matrix_result(result))
    return 0


def _cmd_diagnose(args) -> int:
    import json

    from repro.diagnose import analyze_wormhole, diagnose_instance

    setup, tau_in = _setup_at_load(args)
    cache = None
    if args.cache_dir is not None:
        from repro.cache import ScheduleCache

        cache = ScheduleCache(args.cache_dir)
    diagnosis = diagnose_instance(
        setup.timing, setup.topology, setup.allocation, tau_in, cache=cache
    )
    deep: list = []
    if args.deep:
        from repro.core.assign_paths import lsd_assignment
        from repro.core.pipeline import routed_and_local_messages
        from repro.core.timebounds import compute_time_bounds
        from repro.solvers import get_backend

        routed, _local = routed_and_local_messages(
            setup.timing, setup.allocation
        )
        if routed and not diagnosis.refuted:
            from repro.diagnose import explain_assignment

            bounds = compute_time_bounds(setup.timing, tau_in, routed)
            endpoints = {
                m.name: (
                    setup.allocation[m.src], setup.allocation[m.dst]
                )
                for m in setup.timing.tfg.messages
                if m.name in set(routed)
            }
            assignment = lsd_assignment(setup.topology, endpoints)
            deep = list(
                explain_assignment(
                    bounds, assignment, get_backend(args.lp_backend)
                )
            )
    wr = None
    if args.wr:
        wr = analyze_wormhole(
            setup.timing, setup.topology, setup.allocation, tau_in
        )
    if args.json:
        payload = {
            "instance": {
                "topology": setup.topology.name,
                "bandwidth": args.bandwidth,
                "models": args.models,
                "load": args.load,
                "tau_in": tau_in,
                "allocator": args.allocator,
            },
            "diagnosis": diagnosis.to_dict(),
        }
        if args.deep:
            payload["deep"] = [r.to_dict() for r in deep]
        if wr is not None:
            payload["wormhole"] = wr.to_dict()
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 1 if diagnosis.refuted else 0
    print(
        f"{setup.topology.name} @ B={args.bandwidth} bytes/us, "
        f"load {args.load} (tau_in={tau_in:g}us)"
    )
    print(diagnosis.summary())
    for refutation in diagnosis.refutations:
        print(f"  {refutation.describe()}")
    if args.deep:
        if deep:
            print(f"deep: {len(deep)} LP infeasibility certificate(s) "
                  "for the LSD->MSD assignment")
            for refutation in deep:
                print(f"  {refutation.describe()}")
        elif diagnosis.refuted:
            print("deep: skipped (instance already statically refuted)")
        else:
            print("deep: allocation LP feasible for the LSD->MSD assignment")
    if wr is not None:
        print(
            f"wormhole: {wr.routes_analyzed} route(s), "
            f"deadlock-free={wr.deadlock_free}, oi-safe={wr.oi_safe}"
        )
        for finding in wr.findings:
            print(f"  [{finding.kind}] {finding.detail}")
    return 1 if diagnosis.refuted else 0


def _cmd_check(args) -> int:
    from repro.check import analyze_schedule
    from repro.core.io import load_schedule

    topology = make_topology(args.topology)
    if args.revalidate:
        report = analyze_schedule(
            _schedule_file(args, load_schedule), topology
        )
    else:
        from repro.check.analyzer import analyze_file

        report = _schedule_file(
            args, lambda path: analyze_file(path, topology)
        )
    print(f"{args.schedule} on {topology.name}:")
    print(report.summary())
    if args.trace:
        from repro.trace import TraceRecorder, write_chrome_trace

        tracer = TraceRecorder()
        emitted = report.emit(tracer)
        write_chrome_trace(tracer.events, args.trace)
        print(f"{emitted} finding event(s) written to {args.trace}")
    return 0 if report.ok else 1


def _cmd_fuzz(args) -> int:
    from repro.check import run_fuzz

    seeds = range(args.base_seed, args.base_seed + args.count)
    report = run_fuzz(
        seeds,
        out_dir=args.out,
        progress=print if args.verbose else None,
    )
    print(report.summary())
    for path in report.reproducers:
        print(f"reproducer written to {path}")
    return 0 if report.ok else 1


def _cmd_inspect(args) -> int:
    from repro.core.io import load_schedule
    from repro.viz import link_occupancy_chart, node_gantt

    schedule = _schedule_file(args, load_schedule)
    messages = len(schedule.slots)
    print(
        f"{args.schedule}: period {schedule.tau_in:g} us, {messages} "
        f"messages, {schedule.num_commands} commands on "
        f"{len(schedule.node_schedules)} nodes (re-validated on load)"
    )
    if args.gantt is not None:
        print()
        print(node_gantt(schedule, args.gantt))
    if args.occupancy:
        print()
        print(link_occupancy_chart(schedule, top=args.occupancy))
    return 0


def _cmd_faults(args) -> int:
    from repro.core.compiler import CompilerConfig
    from repro.faults.compare import fault_recovery_experiment

    setup = _setup(args)
    try:
        report = fault_recovery_experiment(
            setup,
            args.load,
            seed=args.seed,
            n_link_faults=args.fail_links,
            n_drifts=args.drifts,
            invocations=args.invocations,
            warmup=args.warmup,
            config=CompilerConfig(seed=args.seed),
        )
    except SchedulingError as error:
        print(f"infeasible at load {args.load} on {setup.topology.name}: {error}")
        return 1
    except RepairInfeasibleError as error:
        print(f"unrepairable fault on {setup.topology.name}: {error}")
        return 1
    except (ValueError, ReproError) as error:
        print(f"bad fault request on {setup.topology.name}: {error}")
        return 1
    print(
        f"{setup.topology.name} @ B={args.bandwidth} bytes/us, "
        f"load {args.load} (tau_in={report.tau_in:g}us), seed {args.seed}"
    )
    print(report.describe())
    return 0


def _cmd_trace(args) -> int:
    from repro.core.compiler import CompilerConfig, compile_schedule
    from repro.results import require_measured
    from repro.trace import TraceRecorder, stage_table, write_chrome_trace

    setup, tau_in = _setup_at_load(args)
    _checked(args, lambda: require_measured(
        args.invocations, args.warmup, ValueError
    ))
    tracer = TraceRecorder()
    run = dict(invocations=args.invocations, warmup=args.warmup, tracer=tracer)
    if args.mode == "sr":
        from repro.core.executor import ScheduledRoutingExecutor

        try:
            routing = compile_schedule(
                setup.timing,
                setup.topology,
                setup.allocation,
                tau_in,
                CompilerConfig(seed=args.seed),
                tracer=tracer,
            )
        except SchedulingError as error:
            print(f"infeasible at load {args.load}: {error}")
            return 1
        result = ScheduledRoutingExecutor(
            routing, setup.timing, setup.topology, setup.allocation
        ).run(**run)
        # One frame of Ω, each node's crossbar settings on its CP track.
        for node, node_schedule in routing.schedule.node_schedules.items():
            for command in node_schedule.commands:
                tracer.span(
                    "crossbar", "switch", command.time, command.end,
                    track=f"CP{node}", input=str(command.input_port),
                    output=str(command.output_port), message=command.message,
                )
        print(stage_table(tracer.events))
        print()
    else:
        from repro.wormhole import WormholeSimulator

        result = WormholeSimulator(
            setup.timing, setup.topology, setup.allocation
        ).run(tau_in, **run)
    print(
        f"{args.mode.upper()} run on {setup.topology.name} @ load {args.load} "
        f"(tau_in={tau_in:g}us): {len(result.completion_times)} invocations, "
        f"OI={result.has_oi()}, "
        f"jitter peak-to-peak={result.jitter().peak_to_peak:.3f}us"
    )
    print(
        f"captured {len(tracer)} trace events on "
        f"{len(tracer.tracks())} tracks"
    )
    if args.chart:
        from repro.viz import trace_occupancy_chart

        print()
        print(trace_occupancy_chart(tracer, top=args.chart))
    write_chrome_trace(tracer.events, args.out)
    print(f"Chrome trace written to {args.out} (open in https://ui.perfetto.dev)")
    return 0


def _cmd_topology(args) -> int:
    from repro.topology import summarize

    rows = []
    for name in sorted(TOPOLOGIES):
        summary = summarize(TOPOLOGIES[name]())
        rows.append((
            name,
            summary.num_nodes,
            summary.num_links,
            f"{summary.degree_min}-{summary.degree_max}"
            if summary.degree_min != summary.degree_max
            else str(summary.degree_min),
            summary.diameter,
            f"{summary.average_distance:.2f}",
            summary.bisection_width,
        ))
    print(format_table(
        ("machine", "nodes", "links", "degree", "diameter", "avg dist",
         "bisection"),
        rows,
        title="Supported 64-node interconnects",
    ))
    return 0


def _cmd_serve(args) -> int:
    from repro.serve import ServeConfig, serve_forever

    return serve_forever(
        ServeConfig(
            host=args.host,
            port=args.port,
            workers=args.workers,
            cache_dir=args.cache_dir,
            admission=not args.no_admission,
        )
    )


def _cmd_submit(args) -> int:
    import json

    from repro.serve import ServeClient

    payload = {
        "kind": args.kind,
        "load": args.load,
        **dataclasses.asdict(_spec(args)),
    }
    with ServeClient(args.host, args.port) as client:
        try:
            status, body = client.submit(
                payload, wait=not args.no_wait, timeout=args.timeout
            )
        except OSError as error:
            args.usage_error(
                f"no compile farm at {args.host}:{args.port}: {error}"
            )
        if args.json:
            print(json.dumps(body, indent=2, sort_keys=True))
        else:
            state = body.get("state", "?")
            result = body.get("result") or {}
            line = f"job {body.get('id', '?')}: {state}"
            if result.get("verdict"):
                line += f" ({result['verdict']})"
            if result.get("utilization") is not None:
                line += (
                    f", U={result['utilization']:.4f}, "
                    f"{result.get('commands', 0)} commands"
                )
            if body.get("elapsed_ms") is not None:
                line += f", {body['elapsed_ms']:.1f}ms"
            print(line)
            if body.get("error"):
                print(f"  error: {body['error']}")
    if status >= 400:
        return 1
    return 0 if body.get("state") in ("done", "queued", "admitted", "running") else 1


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``repro-sr`` console script."""
    # No command does BLAS work a thread pool would speed up, so numpy's
    # import need not start one (this module's imports load no numpy; a
    # caller's value wins, and the pool workers a command starts inherit
    # it).  Set here, not at import, so importing this module leaves the
    # environment alone.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = argparse.ArgumentParser(
        prog="repro-sr",
        description="Scheduled-routing experiments (Shukla & Agrawal, ISCA'91)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_util = sub.add_parser("utilization", help="Fig. 5/6 style U sweep")
    _add_common(p_util)
    p_util.add_argument("--loads", type=float, nargs="*", default=None)
    p_util.set_defaults(func=_cmd_utilization)

    p_pipe = sub.add_parser("pipeline", help="Fig. 7-10 style WR-vs-SR sweep")
    _add_common(p_pipe)
    p_pipe.add_argument("--loads", type=float, nargs="*", default=None)
    p_pipe.set_defaults(func=_cmd_pipeline)

    p_comp = sub.add_parser("compile", help="compile one schedule")
    _add_common(p_comp)
    p_comp.add_argument("--load", type=float, default=0.5)
    p_comp.add_argument(
        "--export", metavar="FILE", default=None,
        help="write the compiled schedule (Omega) to a JSON file",
    )
    p_comp.add_argument(
        "--gantt", type=int, metavar="NODE", default=None,
        help="print the switching-schedule Gantt chart of one node",
    )
    p_comp.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="content-addressed schedule cache directory (reused across runs)",
    )
    _add_lp_backend(p_comp, "LP solver backend for both LP stages")
    p_comp.set_defaults(func=_cmd_compile)

    p_matrix = sub.add_parser(
        "matrix", help="feasibility matrix over topologies x bandwidths x loads"
    )
    p_matrix.add_argument(
        "--topologies", nargs="*",
        choices=sorted(TOPOLOGIES) + sorted(TOPOLOGY_ALIASES),
        default=None,
        help="machines to sweep (default: all)",
    )
    p_matrix.add_argument(
        "--bandwidths", type=float, nargs="*", default=[64.0, 128.0]
    )
    p_matrix.add_argument("--loads", type=float, nargs="*", default=None)
    p_matrix.add_argument("--models", type=int, default=8, help="DVB object models")
    p_matrix.add_argument("--seed", type=int, default=0)
    p_matrix.add_argument(
        "--allocator", choices=ALLOCATORS, default="sequential",
        help="task placement strategy (random/annealed honour --seed)",
    )
    p_matrix.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes compiling matrix points in parallel",
    )
    p_matrix.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="shared schedule cache directory (warm reruns skip the LPs)",
    )
    _add_lp_backend(p_matrix, "LP solver backend for both LP stages")
    p_matrix.add_argument(
        "--check", action="store_true",
        help="run the conformance analyzer on every feasible point "
             "(flagged points show CHK instead of OK)",
    )
    p_matrix.set_defaults(func=_cmd_matrix, usage_error=p_matrix.error)

    p_diag = sub.add_parser(
        "diagnose",
        help="static instance diagnosis: infeasibility certificates "
             "and wormhole hazards, no compilation",
    )
    _add_common(p_diag)
    p_diag.add_argument("--load", type=float, default=0.5)
    p_diag.add_argument(
        "--json", action="store_true",
        help="emit the diagnosis as JSON instead of text",
    )
    p_diag.add_argument(
        "--deep", action="store_true",
        help="also extract Farkas LP certificates for the LSD->MSD "
             "assignment when the instance is not statically refuted",
    )
    p_diag.add_argument(
        "--wr", action="store_true",
        help="also run the static wormhole analysis (CDG deadlock "
             "cycles, OI prediction)",
    )
    p_diag.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="cache directory for diagnosis results",
    )
    _add_lp_backend(p_diag, "LP solver backend used by --deep")
    p_diag.set_defaults(func=_cmd_diagnose)

    p_check = sub.add_parser(
        "check",
        help="independent conformance analysis of a saved schedule",
    )
    p_check.add_argument("schedule", help="path to a saved schedule (omega.json)")
    p_check.add_argument(
        "--topology",
        choices=sorted(TOPOLOGIES) + sorted(TOPOLOGY_ALIASES),
        default="hypercube6",
        help="machine the schedule targets",
    )
    p_check.add_argument(
        "--revalidate", action="store_true",
        help="also run the loader's own validation (raises on first "
             "failure) instead of analyzing the raw serialized form",
    )
    p_check.add_argument(
        "--trace", metavar="FILE", default=None,
        help="write the findings as Chrome trace events",
    )
    p_check.set_defaults(func=_cmd_check, usage_error=p_check.error)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzz: both LP backends, cold+warm cache, "
             "analyzer vs replay verdicts, bytes across two processes",
    )
    p_fuzz.add_argument(
        "--count", type=int, default=24, help="number of fuzz points"
    )
    p_fuzz.add_argument(
        "--base-seed", type=int, default=0,
        help="first seed of the corpus (seeds are consecutive)",
    )
    p_fuzz.add_argument(
        "--out", metavar="DIR", default=None,
        help="directory for reproducer files (written on disagreement)",
    )
    p_fuzz.add_argument(
        "--verbose", action="store_true", help="print one line per point"
    )
    p_fuzz.set_defaults(func=_cmd_fuzz)

    p_faults = sub.add_parser(
        "faults",
        help="inject link failures, repair the schedule, compare with WR",
    )
    _add_common(p_faults)
    p_faults.add_argument("--load", type=float, default=0.5)
    p_faults.add_argument(
        "--fail-links", type=_nonnegative_int, default=1,
        help="permanent link failures to inject (on schedule-used links)",
    )
    p_faults.add_argument(
        "--drifts", type=_nonnegative_int, default=0,
        help="nodes given a random CP clock-drift offset",
    )
    p_faults.add_argument("--invocations", type=int, default=40)
    p_faults.add_argument("--warmup", type=int, default=8)
    p_faults.set_defaults(func=_cmd_faults, bandwidth=128.0)

    p_trace = sub.add_parser(
        "trace",
        help="run one traced SR or WR execution and export a Chrome trace",
    )
    _add_common(p_trace)
    p_trace.add_argument(
        "--mode", choices=("sr", "wr"), default="sr",
        help="scheduled routing (with compile profile) or wormhole routing",
    )
    p_trace.add_argument("--load", type=float, default=0.5)
    p_trace.add_argument("--invocations", type=int, default=12)
    p_trace.add_argument("--warmup", type=int, default=4)
    p_trace.add_argument(
        "--out", metavar="FILE", default="trace.json",
        help="Chrome/Perfetto trace output path",
    )
    p_trace.add_argument(
        "--chart", type=_nonnegative_int, metavar="TOP", default=0,
        help="also print the TOP busiest traced links as ASCII bars",
    )
    p_trace.set_defaults(func=_cmd_trace, bandwidth=128.0)

    p_serve = sub.add_parser(
        "serve",
        help="run the compile-farm daemon (HTTP/JSON job queue)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8750,
        help="TCP port to bind (0 picks a free one)",
    )
    p_serve.add_argument(
        "--workers", type=_nonnegative_int, default=2,
        help="compile worker processes (0 = inline, single process)",
    )
    p_serve.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="shared schedule cache directory (default: ephemeral)",
    )
    p_serve.add_argument(
        "--no-admission", action="store_true",
        help="disable the static-diagnoser admission fast path",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_submit = sub.add_parser(
        "submit", help="submit one job to a running compile farm"
    )
    _add_common(p_submit)
    p_submit.add_argument("--load", type=float, default=0.5)
    p_submit.add_argument(
        "--kind", choices=("compile", "diagnose", "check"),
        default="compile",
    )
    p_submit.add_argument("--host", default="127.0.0.1")
    p_submit.add_argument("--port", type=int, default=8750)
    p_submit.add_argument(
        "--no-wait", action="store_true",
        help="return the job id immediately instead of waiting",
    )
    p_submit.add_argument(
        "--timeout", type=float, default=None,
        help="cap on --wait blocking, seconds",
    )
    p_submit.add_argument(
        "--json", action="store_true",
        help="print the full job snapshot as JSON",
    )
    p_submit.set_defaults(func=_cmd_submit)

    p_topo = sub.add_parser("topology", help="structural summaries")
    p_topo.set_defaults(func=_cmd_topology)

    p_inspect = sub.add_parser(
        "inspect", help="inspect a saved schedule (omega.json)"
    )
    p_inspect.add_argument("schedule", help="path to a saved schedule")
    p_inspect.add_argument("--gantt", type=int, metavar="NODE", default=None)
    p_inspect.add_argument(
        "--occupancy", type=int, metavar="TOP", default=0,
        help="show the TOP busiest links",
    )
    p_inspect.set_defaults(func=_cmd_inspect, usage_error=p_inspect.error)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
