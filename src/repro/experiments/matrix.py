"""The feasibility matrix: every machine x bandwidth x load verdict.

Condenses the paper's Figs. 7-10 into one table: for each (topology,
bandwidth) pair, which of the twelve load points scheduled routing can
serve and which compiler stage rejected the rest.  The design-sweep
example and the TAB-MATRIX bench both print it.

:func:`run_feasibility_matrix` is the full-featured entry point: it can
fan compilation out over worker processes (``jobs=N``; every matrix
point is an independent compilation) and reuse a content-addressed
:class:`~repro.cache.ScheduleCache` so repeated sweeps — including the
infeasible points, via negative entries — skip the LP work entirely.
"""

from __future__ import annotations

import time
from concurrent.futures import as_completed
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from repro.cache.store import (
    CacheStats,
    ScheduleCache,
    persist_cache_stats,
    process_cache,
)
from repro.core.compiler import CompilerConfig, compile_schedule
from repro.core.pipeline import CHECK_FLAGGED, OK, verdict_code
from repro.errors import SchedulingError
from repro.experiments.setup import standard_setup
from repro.pool import GracefulPool
from repro.tfg.graph import TaskFlowGraph
from repro.topology.base import Topology


@dataclass(frozen=True)
class MatrixRow:
    """Verdicts for one (topology, bandwidth) configuration."""

    topology: str
    bandwidth: float
    verdicts: tuple[str, ...]
    loads: tuple[float, ...]

    @property
    def feasible_count(self) -> int:
        return sum(1 for v in self.verdicts if v == OK)


@dataclass(frozen=True)
class MatrixResult:
    """A computed feasibility matrix plus how it was computed.

    ``cache_stats`` aggregates hit/miss/store counters over every
    compilation (``None`` when no cache was used); on a warm rerun
    ``hit_rate`` approaches 1.0.
    """

    rows: tuple[MatrixRow, ...]
    elapsed_s: float
    jobs: int
    cache_stats: dict[str, float | int] | None = None
    #: True when a SIGTERM/SIGINT drained the worker pool mid-sweep:
    #: in-flight cells finished, queued ones carry the "-" verdict.
    interrupted: bool = False

    @property
    def hit_rate(self) -> float:
        return self.cache_stats["hit_rate"] if self.cache_stats else 0.0



def _compile_point(
    tfg: TaskFlowGraph,
    topology: Topology,
    bandwidth: float,
    load: float,
    config: CompilerConfig,
    placed: Mapping[str, int] | None,
    cache: ScheduleCache | None,
    analyze: bool = False,
) -> str:
    """Compile one matrix point and return its verdict code.

    With ``analyze=True`` every feasible schedule additionally runs
    through the independent conformance analyzer (:mod:`repro.check`);
    a flagged schedule turns the verdict from ``OK`` into ``CHK``.
    """
    kwargs = {} if placed is None else {"allocation": placed}
    setup = standard_setup(tfg, topology, bandwidth, **kwargs)
    try:
        routing = compile_schedule(
            setup.timing,
            setup.topology,
            setup.allocation,
            setup.tau_in_for_load(load),
            config,
            cache=cache,
        )
    except SchedulingError as error:
        return verdict_code(error)
    if analyze:
        from repro.check.analyzer import analyze_schedule

        report = analyze_schedule(
            routing.schedule,
            setup.topology,
            timing=setup.timing,
            allocation=setup.allocation,
        )
        if not report.ok:
            return CHECK_FLAGGED
    return OK


def _matrix_cell(payload: tuple) -> tuple[int, str, dict | None]:
    """Worker-process entry: one (topology, bandwidth, load) point.

    Module-level so :class:`ProcessPoolExecutor` can pickle it.  Every
    cell a worker runs shares that process's one cache handle on the
    directory (:func:`~repro.cache.store.process_cache`) and ships its
    own counter deltas back for aggregation, as farm tasks do.
    """
    (index, tfg, topology, bandwidth, load, config, placed, cache_dir,
     analyze) = payload
    cache = process_cache(cache_dir)
    before = cache.stats.copy() if cache is not None else None
    verdict = _compile_point(
        tfg, topology, bandwidth, load, config, placed, cache, analyze
    )
    stats = cache.stats - before if cache is not None else None
    return index, verdict, stats


def run_feasibility_matrix(
    tfg: TaskFlowGraph,
    topologies: list[Topology],
    bandwidths: list[float],
    loads: list[float],
    config: CompilerConfig | None = None,
    allocation=None,
    jobs: int = 1,
    cache: ScheduleCache | str | Path | None = None,
    analyze: bool = False,
) -> MatrixResult:
    """Compile the workload at every (topology, bandwidth, load) point.

    Parameters
    ----------
    allocation:
        Optional callable ``(tfg, topology) -> Allocation`` overriding
        the default sequential placement (evaluated once per topology,
        in the parent process).
    analyze:
        Run every feasible schedule through the independent conformance
        analyzer (:mod:`repro.check`); flagged points report the
        ``CHK`` verdict instead of ``OK``.
    jobs:
        Number of worker processes.  ``1`` (default) compiles serially
        in-process; ``N > 1`` fans the points out over a
        :class:`~concurrent.futures.ProcessPoolExecutor` — every matrix
        point is an independent compilation, so this scales to the
        point count.
    cache:
        ``None`` (no caching), a directory path (shared on-disk cache —
        the only form workers can share, required when ``jobs > 1``),
        or an in-process :class:`~repro.cache.ScheduleCache` instance
        (serial runs only).
    """
    config = config or CompilerConfig()
    began = time.perf_counter()

    placements: dict[str, Mapping[str, int] | None] = {}
    for topology in topologies:
        placements[topology.name] = (
            dict(allocation(tfg, topology)) if allocation is not None else None
        )

    points = [
        (topology, bandwidth, load)
        for bandwidth in bandwidths
        for topology in topologies
        for load in loads
    ]

    interrupted = False
    if jobs > 1:
        if isinstance(cache, ScheduleCache):
            raise ValueError(
                "parallel matrix workers cannot share an in-process "
                "ScheduleCache; pass a cache directory instead"
            )
        cache_dir = str(cache) if cache is not None else None
        payloads = [
            (
                i, tfg, topology, bandwidth, load, config,
                placements[topology.name], cache_dir, analyze,
            )
            for i, (topology, bandwidth, load) in enumerate(points)
        ]
        verdicts: list[str] = ["-"] * len(points)
        totals = CacheStats()
        hooks = (
            [lambda: persist_cache_stats(cache_dir, totals)]
            if cache_dir is not None
            else []
        )
        with GracefulPool(max_workers=jobs, on_shutdown=hooks) as pool:
            pool.install_signal_handlers()
            futures = [pool.submit(_matrix_cell, p) for p in payloads]
            for future in as_completed(futures):
                if future.cancelled():  # drained by SIGTERM/SIGINT
                    continue
                index, verdict, stats = future.result()
                verdicts[index] = verdict
                totals.update(stats)
            interrupted = pool.draining
        cache_stats = totals.as_dict() if cache_dir is not None else None
    else:
        cache_dir = (
            str(cache) if isinstance(cache, (str, Path)) else None
        )
        if isinstance(cache, (str, Path)):
            cache = ScheduleCache(cache)
        verdicts = [
            _compile_point(
                tfg, topology, bandwidth, load, config,
                placements[topology.name], cache, analyze,
            )
            for topology, bandwidth, load in points
        ]
        cache_stats = cache.stats.as_dict() if cache is not None else None
        if cache is not None and cache_dir is not None:
            persist_cache_stats(cache_dir, cache.stats)

    rows: list[MatrixRow] = []
    stride = len(loads)
    offset = 0
    for bandwidth in bandwidths:
        for topology in topologies:
            rows.append(
                MatrixRow(
                    topology=topology.name,
                    bandwidth=bandwidth,
                    verdicts=tuple(verdicts[offset:offset + stride]),
                    loads=tuple(loads),
                )
            )
            offset += stride
    return MatrixResult(
        rows=tuple(rows),
        elapsed_s=time.perf_counter() - began,
        jobs=jobs,
        cache_stats=cache_stats,
        interrupted=interrupted,
    )


def format_matrix(rows: list[MatrixRow]) -> str:
    """Render the matrix as a fixed-width table."""
    from repro.report import format_table

    if not rows:
        return "(empty matrix)"
    headers = ["machine", "B"] + [f"{load:.2f}" for load in rows[0].loads]
    table = [
        [row.topology, f"{row.bandwidth:g}"] + list(row.verdicts)
        for row in rows
    ]
    return format_table(headers, table, title="SR feasibility matrix")


def format_matrix_result(result: MatrixResult) -> str:
    """Render a :class:`MatrixResult` with its run/cache statistics."""
    lines = [format_matrix(list(result.rows))]
    run = f"computed in {result.elapsed_s:.2f}s with jobs={result.jobs}"
    if result.cache_stats is not None:
        s = result.cache_stats
        run += (
            f"; cache: {s['hits']} hits / {s['misses']} misses "
            f"(hit rate {result.hit_rate:.1%})"
        )
    lines.append(run)
    if result.interrupted:
        lines.append(
            "interrupted: the worker pool was drained by a signal; "
            "cells marked '-' were never compiled"
        )
    return "\n".join(lines)
