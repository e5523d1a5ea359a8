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
import gc
import os
import sys
from pathlib import Path
from typing import Callable, NoReturn

# Only what building the parser needs is imported here, none of it numpy
# or ``repro.core``: each ``_cmd_*`` imports what it runs, so ``--help``
# and ``submit`` stay light and ``compile`` pays for no more than a
# compile.
from repro.errors import ReproError, RepairInfeasibleError, SchedulingError
from repro.experiments.setup import ALLOCATORS, InstanceSpec, normalized_load
from repro.solvers import BACKEND_NAMES
from repro.topology.registry import (
    STANDARD_TOPOLOGIES as TOPOLOGIES,
    TOPOLOGY_ALIASES,
    make_topology,
)


def _nonnegative_int(value: str) -> int:
    parsed = int(value)
    if parsed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {parsed}")
    return parsed


# Output paths are checked as they are parsed, so a path the command could
# not write to once its work is done exits 2 before any of it.  The message
# names the option itself, so it is raised as an ``ArgumentError`` with no
# argument (argparse would prefix an ``ArgumentTypeError`` with one).


def _file_to_write(option: str) -> Callable[[str], str]:
    """The ``type`` of ``option``, a file the command writes: not a
    directory, in a directory that exists."""
    def check(name: str) -> str:
        target = Path(name)
        if target.is_dir():
            raise argparse.ArgumentError(
                None, f"cannot write {option} {name}: a directory"
            )
        if not target.parent.is_dir():
            raise argparse.ArgumentError(
                None,
                f"cannot write {option} {name}: "
                f"{target.parent} is not a directory",
            )
        return name
    return check


def _directory_to_make(option: str) -> Callable[[str], str]:
    """The ``type`` of ``option``, a directory the command makes as needed:
    the part of it that exists is a directory."""
    def check(name: str) -> str:
        path = Path(name).expanduser()
        found = next((p for p in (path, *path.parents) if p.exists()), path)
        if not found.is_dir():
            raise argparse.ArgumentError(
                None, f"cannot use {option} {name}: {found} is not a directory"
            )
        return name
    return check


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
    from repro.metrics.series import load_sweep

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
    from repro.report.tables import format_table

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
    from repro.report.tables import format_spike, format_table

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
    nodes = setup.topology.num_nodes
    if args.gantt is not None and args.gantt >= nodes:
        args.usage_error(
            f"--gantt {args.gantt} is not a node of {args.topology} "
            f"(nodes 0-{nodes - 1})"
        )
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
    from repro.tfg.dvb import dvb_tfg

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
    from repro.results import require_measured

    setup, _ = _setup_at_load(args)
    _checked(args, lambda: require_measured(
        args.invocations, args.warmup, ValueError
    ))
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
    from repro.report.tables import format_table
    from repro.topology.analysis import summarize

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


# -- the parser ---------------------------------------------------------------


def _sweep_args(parser: argparse.ArgumentParser) -> None:
    _add_common(parser)
    parser.add_argument("--loads", type=float, nargs="*", default=None)


def _compile_args(parser: argparse.ArgumentParser) -> None:
    _add_common(parser)
    parser.add_argument("--load", type=float, default=0.5)
    parser.add_argument(
        "--export", metavar="FILE", default=None,
        type=_file_to_write("--export"),
        help="write the compiled schedule (Omega) to a JSON file",
    )
    parser.add_argument(
        "--gantt", type=_nonnegative_int, metavar="NODE", default=None,
        help="print the switching-schedule Gantt chart of one node",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        type=_directory_to_make("--cache-dir"),
        help="content-addressed schedule cache directory (reused across runs)",
    )
    _add_lp_backend(parser, "LP solver backend for both LP stages")


def _matrix_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--topologies", nargs="*",
        choices=sorted(TOPOLOGIES) + sorted(TOPOLOGY_ALIASES),
        default=None,
        help="machines to sweep (default: all)",
    )
    parser.add_argument(
        "--bandwidths", type=float, nargs="*", default=[64.0, 128.0]
    )
    parser.add_argument("--loads", type=float, nargs="*", default=None)
    parser.add_argument("--models", type=int, default=8, help="DVB object models")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--allocator", choices=ALLOCATORS, default="sequential",
        help="task placement strategy (random/annealed honour --seed)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes compiling matrix points in parallel",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        type=_directory_to_make("--cache-dir"),
        help="shared schedule cache directory (warm reruns skip the LPs)",
    )
    _add_lp_backend(parser, "LP solver backend for both LP stages")
    parser.add_argument(
        "--check", action="store_true",
        help="run the conformance analyzer on every feasible point "
             "(flagged points show CHK instead of OK)",
    )


def _diagnose_args(parser: argparse.ArgumentParser) -> None:
    _add_common(parser)
    parser.add_argument("--load", type=float, default=0.5)
    parser.add_argument(
        "--json", action="store_true",
        help="emit the diagnosis as JSON instead of text",
    )
    parser.add_argument(
        "--deep", action="store_true",
        help="also extract Farkas LP certificates for the LSD->MSD "
             "assignment when the instance is not statically refuted",
    )
    parser.add_argument(
        "--wr", action="store_true",
        help="also run the static wormhole analysis (CDG deadlock "
             "cycles, OI prediction)",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        type=_directory_to_make("--cache-dir"),
        help="cache directory for diagnosis results",
    )
    _add_lp_backend(parser, "LP solver backend used by --deep")


def _check_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("schedule", help="path to a saved schedule (omega.json)")
    parser.add_argument(
        "--topology",
        choices=sorted(TOPOLOGIES) + sorted(TOPOLOGY_ALIASES),
        default="hypercube6",
        help="machine the schedule targets",
    )
    parser.add_argument(
        "--revalidate", action="store_true",
        help="also run the loader's own validation (raises on first "
             "failure) instead of analyzing the raw serialized form",
    )
    parser.add_argument(
        "--trace", metavar="FILE", default=None,
        type=_file_to_write("--trace"),
        help="write the findings as Chrome trace events",
    )


def _fuzz_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--count", type=int, default=24, help="number of fuzz points"
    )
    parser.add_argument(
        "--base-seed", type=int, default=0,
        help="first seed of the corpus (seeds are consecutive)",
    )
    parser.add_argument(
        "--out", metavar="DIR", default=None,
        type=_directory_to_make("--out"),
        help="directory for reproducer files (written on disagreement)",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="print one line per point"
    )


def _faults_args(parser: argparse.ArgumentParser) -> None:
    _add_common(parser)
    parser.add_argument("--load", type=float, default=0.5)
    parser.add_argument(
        "--fail-links", type=_nonnegative_int, default=1,
        help="permanent link failures to inject (on schedule-used links)",
    )
    parser.add_argument(
        "--drifts", type=_nonnegative_int, default=0,
        help="nodes given a random CP clock-drift offset",
    )
    parser.add_argument("--invocations", type=int, default=40)
    parser.add_argument("--warmup", type=int, default=8)
    parser.set_defaults(bandwidth=128.0)


def _trace_args(parser: argparse.ArgumentParser) -> None:
    _add_common(parser)
    parser.add_argument(
        "--mode", choices=("sr", "wr"), default="sr",
        help="scheduled routing (with compile profile) or wormhole routing",
    )
    parser.add_argument("--load", type=float, default=0.5)
    parser.add_argument("--invocations", type=int, default=12)
    parser.add_argument("--warmup", type=int, default=4)
    parser.add_argument(
        "--out", metavar="FILE", default="trace.json",
        type=_file_to_write("--out"),
        help="Chrome/Perfetto trace output path",
    )
    parser.add_argument(
        "--chart", type=_nonnegative_int, metavar="TOP", default=0,
        help="also print the TOP busiest traced links as ASCII bars",
    )
    parser.set_defaults(bandwidth=128.0)


def _serve_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8750,
        help="TCP port to bind (0 picks a free one)",
    )
    parser.add_argument(
        "--workers", type=_nonnegative_int, default=2,
        help="compile worker processes (0 = inline, single process)",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        type=_directory_to_make("--cache-dir"),
        help="shared schedule cache directory (default: ephemeral)",
    )
    parser.add_argument(
        "--no-admission", action="store_true",
        help="disable the static-diagnoser admission fast path",
    )


def _submit_args(parser: argparse.ArgumentParser) -> None:
    _add_common(parser)
    parser.add_argument("--load", type=float, default=0.5)
    parser.add_argument(
        "--kind", choices=("compile", "diagnose", "check"),
        default="compile",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8750)
    parser.add_argument(
        "--no-wait", action="store_true",
        help="return the job id immediately instead of waiting",
    )
    parser.add_argument(
        "--timeout", type=float, default=None,
        help="cap on --wait blocking, seconds",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the full job snapshot as JSON",
    )


def _inspect_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("schedule", help="path to a saved schedule")
    parser.add_argument(
        "--gantt", type=_nonnegative_int, metavar="NODE", default=None
    )
    parser.add_argument(
        "--occupancy", type=int, metavar="TOP", default=0,
        help="show the TOP busiest links",
    )


#: Every command: its ``--help`` line, what adds its arguments and what
#: runs it, in the order ``repro-sr --help`` lists them.
COMMANDS = {
    "utilization": ("Fig. 5/6 style U sweep", _sweep_args, _cmd_utilization),
    "pipeline": (
        "Fig. 7-10 style WR-vs-SR sweep", _sweep_args, _cmd_pipeline
    ),
    "compile": ("compile one schedule", _compile_args, _cmd_compile),
    "matrix": (
        "feasibility matrix over topologies x bandwidths x loads",
        _matrix_args, _cmd_matrix,
    ),
    "diagnose": (
        "static instance diagnosis: infeasibility certificates "
        "and wormhole hazards, no compilation",
        _diagnose_args, _cmd_diagnose,
    ),
    "check": (
        "independent conformance analysis of a saved schedule",
        _check_args, _cmd_check,
    ),
    "fuzz": (
        "differential fuzz: both LP backends, cold+warm cache, "
        "analyzer vs replay verdicts, bytes across two processes",
        _fuzz_args, _cmd_fuzz,
    ),
    "faults": (
        "inject link failures, repair the schedule, compare with WR",
        _faults_args, _cmd_faults,
    ),
    "trace": (
        "run one traced SR or WR execution and export a Chrome trace",
        _trace_args, _cmd_trace,
    ),
    "serve": (
        "run the compile-farm daemon (HTTP/JSON job queue)",
        _serve_args, _cmd_serve,
    ),
    "submit": (
        "submit one job to a running compile farm", _submit_args, _cmd_submit
    ),
    "topology": ("structural summaries", lambda parser: None, _cmd_topology),
    "inspect": (
        "inspect a saved schedule (omega.json)", _inspect_args, _cmd_inspect
    ),
}


def _parser(commands) -> argparse.ArgumentParser:
    """The ``repro-sr`` parser holding the subparsers of ``commands`` only.

    Whatever one built for a few commands says about them (help, usage,
    errors) is what the full parser says: its usage line still lists
    every command.
    """
    commands = list(commands)
    parser = argparse.ArgumentParser(
        prog="repro-sr",
        description="Scheduled-routing experiments (Shukla & Agrawal, ISCA'91)",
    )
    sub = parser.add_subparsers(
        dest="command", required=True,
        # Unset on the full parser, whose errors then name the argument
        # ``command`` and list the choices themselves.
        metavar=None if commands == list(COMMANDS)
        else "{" + ",".join(COMMANDS) + "}",
    )
    for name in commands:
        summary, add_arguments, func = COMMANDS[name]
        command = sub.add_parser(name, help=summary)
        command.set_defaults(func=func, usage_error=command.error)
        add_arguments(command)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the ``repro-sr`` command ``argv`` names (default:
    ``sys.argv[1:]``); its exit code."""
    # No command does BLAS work a thread pool would speed up, so numpy's
    # import need not start one (this module's imports load no numpy; a
    # caller's value wins, and the pool workers a command starts inherit
    # it).  Set here, not at import, so importing this module leaves the
    # environment alone.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    if argv is None:
        argv = sys.argv[1:]
    # Only the named command's parser is built; ``--help``, no command or
    # an unknown one gets all of them.
    args = _parser(
        argv[:1] if argv and argv[0] in COMMANDS else COMMANDS
    ).parse_args(argv)
    return args.func(args)


def run() -> NoReturn:
    """The ``repro-sr`` console script and ``python -m repro.cli``:
    :func:`main`, then exit."""
    code = main()
    # What is still alive dies with the process: frozen, it is no longer
    # walked by the interpreter's last collection (most of it the numpy,
    # scipy and repro import heap).  Not in main(), whose callers (tests,
    # embedding programs) go on running.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":  # pragma: no cover
    run()
