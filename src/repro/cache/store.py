"""The schedule cache: an in-memory tier over an optional on-disk tier.

Entries are JSON documents addressed by the content key of
:mod:`repro.cache.keys`.  Three kinds exist:

- ``"schedule"`` — a successful compilation: the serialized
  :class:`~repro.core.switching.CommunicationSchedule` (via
  :mod:`repro.core.io`) plus the subsets/allocations/attempt metadata
  needed to rebuild a full :class:`~repro.core.compiler.ScheduledRouting`;
- ``"failure"`` — a *negative* entry recording which
  :class:`~repro.errors.SchedulingError` a compilation raised, so the
  feasibility matrix's infeasible points also hit on warm runs instead
  of re-running the LPs just to fail identically;
- ``"artifact"`` — one pipeline stage's output under an artifact key
  from :mod:`repro.cache.artifacts`, the unit of delta compilation.
  Artifact traffic is counted in :attr:`CacheStats.stages` (per stage
  name), never in the scalar schedule-level counters, so delta
  recompiles don't skew schedule hit rates.

:meth:`ScheduleCache.fetch` returns a rebuilt routing on a schedule hit,
**raises** the reconstructed error on a failure hit, and returns ``None``
on a miss.  Disk writes are atomic (temp file + ``os.replace``) so
parallel matrix workers sharing one cache directory never observe a
torn entry; entries with an unknown format version or unparsable JSON
are dropped and counted as invalidations.

Behind a disk tier the memory tier is a bounded LRU (a long-lived serve
worker otherwise keeps ~18 entries per cold compile forever): an evicted
entry is simply the next disk hit, with the identical result.  A purely
in-memory cache is the only copy of its entries and never evicts.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

from repro.cache.keys import CACHE_VERSION
from repro.core.assignment import PathAssignment
from repro.core.interval_allocation import IntervalAllocation
from repro.core.io import schedule_from_dict, schedule_to_dict
from repro.core.utilization import utilization_report
from repro.errors import (
    IntervalAllocationError,
    IntervalSchedulingError,
    SchedulingError,
    StaticallyRefutedError,
    UtilizationExceededError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.compiler import ScheduledRouting
    from repro.topology.base import Topology


@dataclass
class CacheStats:
    """Hit/miss/store/invalidation counters of one cache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalidations: int = 0
    #: Per-stage artifact counters of the delta-compilation tier, keyed
    #: ``stage name -> {"hits" | "misses" | "stores": int}``.  Kept
    #: separate from the scalar schedule-level counters above so
    #: artifact traffic never skews schedule hit rates (which CI gates
    #: on for the matrix and serve load tests).
    stages: dict[str, dict[str, int]] = field(default_factory=dict)

    #: The raw counter names (everything except the derived hit rate).
    FIELDS = ("hits", "misses", "stores", "invalidations")
    #: Counter names tracked per artifact stage.
    STAGE_FIELDS = ("hits", "misses", "stores")

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def stage(self, name: str) -> dict[str, int]:
        """The (auto-created) counter dict of one artifact stage."""
        return self.stages.setdefault(
            name, {event: 0 for event in self.STAGE_FIELDS}
        )

    def record_stage(self, name: str, event: str) -> None:
        """Count one artifact-stage ``"hits"``/``"misses"``/``"stores"``."""
        self.stage(name)[event] += 1

    def as_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalidations": self.invalidations,
            "hit_rate": round(self.hit_rate, 4),
        }
        if self.stages:
            payload["stages"] = {
                name: dict(counters)
                for name, counters in sorted(self.stages.items())
            }
        return payload

    def snapshot(self) -> dict[str, Any]:
        """The raw counters, for :meth:`since` deltas across a task."""
        snap: dict[str, Any] = {
            name: getattr(self, name) for name in self.FIELDS
        }
        snap["stages"] = {
            name: dict(counters) for name, counters in self.stages.items()
        }
        return snap

    def since(self, before: Mapping[str, Any]) -> dict[str, Any]:
        """Counter deltas relative to an earlier :meth:`snapshot`.

        Worker processes ship these per-task deltas back to the parent
        (matrix fan-out, serve farm), which :meth:`merge`\\ s them — so
        aggregated totals sum correctly even when one long-lived worker
        cache serves many tasks.  Stage counters ride along under
        ``"stages"`` (omitted when no stage moved).
        """
        delta: dict[str, Any] = {
            name: getattr(self, name) - int(before.get(name, 0))
            for name in self.FIELDS
        }
        before_stages: Mapping[str, Mapping[str, int]] = (
            before.get("stages") or {}
        )
        stages: dict[str, dict[str, int]] = {}
        for name, counters in self.stages.items():
            prior = before_stages.get(name, {})
            moved = {
                event: counters.get(event, 0) - int(prior.get(event, 0))
                for event in self.STAGE_FIELDS
            }
            if any(moved.values()):
                stages[name] = moved
        if stages:
            delta["stages"] = stages
        return delta

    def merge(self, other: "CacheStats | Mapping[str, Any]") -> None:
        """Add another instance's (or delta dict's) counters into this one."""
        if isinstance(other, CacheStats):
            other = other.snapshot()
        for name in self.FIELDS:
            setattr(self, name, getattr(self, name) + int(other.get(name, 0)))
        stage_counts: Mapping[str, Mapping[str, int]] = (
            other.get("stages") or {}
        )
        for name, counters in stage_counts.items():
            mine = self.stage(name)
            for event in self.STAGE_FIELDS:
                mine[event] += int(counters.get(event, 0))


def persist_cache_stats(
    cache_dir: str | Path, stats: "Mapping[str, float | int] | CacheStats | None"
) -> Path | None:
    """Atomically write aggregated cache counters next to the entries.

    Both graceful-shutdown consumers of the compiler — the experiment
    matrix's ``jobs=N`` fan-out and the ``repro.serve`` worker pool —
    call this from their :class:`~repro.pool.GracefulPool` shutdown
    hooks, so even a SIGTERM-drained run leaves
    ``<cache_dir>/cache-stats.json`` behind.  Returns the written path
    (``None`` when there was nothing to persist).
    """
    if stats is None:
        return None
    if isinstance(stats, CacheStats):
        stats = stats.as_dict()
    directory = Path(cache_dir).expanduser()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "cache-stats.json"
    payload = dict(stats)
    lookups = payload.get("hits", 0) + payload.get("misses", 0)
    payload.setdefault(
        "hit_rate",
        round(payload.get("hits", 0) / lookups, 4) if lookups else 0.0,
    )
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".stats-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:  # pragma: no cover - cleanup path
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


#: ``solver_stats`` keys that report wall-clock measurements.  They are
#: live telemetry of *this* compilation, not properties of the cached
#: artifact: storing them made two byte-identical compilations produce
#: different cache entries (and re-served stale timings as if they were
#: fresh).  :func:`routing_to_entry` strips them; cache hits simply
#: have no timing, which is the truth.
VOLATILE_SOLVER_STATS = ("lp_wall_ms",)


def _stable_solver_stats(
    stats: Mapping[str, Any] | None,
) -> dict[str, Any] | None:
    if stats is None:
        return None
    return {
        key: value
        for key, value in stats.items()
        if key not in VOLATILE_SOLVER_STATS
    }


def routing_to_entry(routing: "ScheduledRouting") -> dict[str, Any]:
    """Serialize a successful compilation to a JSON-able entry."""
    return {
        "format": CACHE_VERSION,
        "kind": "schedule",
        "schedule": schedule_to_dict(routing.schedule),
        "subsets": [list(subset) for subset in routing.subsets],
        "allocations": [
            {
                "subset": list(a.subset),
                "cells": [
                    [name, k, t] for (name, k), t in a.allocation.items()
                ],
                "load_factor": a.load_factor,
            }
            for a in routing.allocations
        ],
        "tau_in": routing.tau_in,
        "local_messages": list(routing.local_messages),
        "attempts": routing.attempts,
        "solver_stats": _stable_solver_stats(
            routing.extra.get("solver_stats")
        ),
    }


def entry_to_routing(
    entry: Mapping[str, Any],
    topology: "Topology",
    key: str,
) -> "ScheduledRouting":
    """Rebuild a :class:`ScheduledRouting` from a ``"schedule"`` entry.

    The schedule itself round-trips exactly through
    :mod:`repro.core.io` (and is re-validated on load); the utilisation
    report is recomputed from the deserialized bounds and paths on the
    given topology — a cheap matrix evaluation, no LP work.
    """
    from repro.core.compiler import ScheduledRouting

    schedule = schedule_from_dict(entry["schedule"])
    endpoints = {
        name: (path[0], path[-1])
        for name, path in schedule.assignment.items()
    }
    assignment = PathAssignment(
        topology,
        endpoints,
        {name: list(path) for name, path in schedule.assignment.items()},
    )
    report = utilization_report(schedule.bounds, assignment)
    allocations = [
        IntervalAllocation(
            subset=tuple(a["subset"]),
            allocation={
                (name, int(k)): float(t) for name, k, t in a["cells"]
            },
            load_factor=float(a["load_factor"]),
        )
        for a in entry["allocations"]
    ]
    routing = ScheduledRouting(
        schedule=schedule,
        utilization=report,
        bounds=schedule.bounds,
        subsets=[tuple(subset) for subset in entry["subsets"]],
        allocations=allocations,
        tau_in=float(entry["tau_in"]),
        local_messages=tuple(entry["local_messages"]),
        attempts=int(entry["attempts"]),
    )
    if entry.get("solver_stats") is not None:
        routing.extra["solver_stats"] = dict(entry["solver_stats"])
    routing.extra["cache"] = {"hit": True, "key": key}
    return routing


def error_to_entry(error: SchedulingError) -> dict[str, Any]:
    """Serialize a compilation failure to a negative entry."""
    args: dict[str, Any] = {}
    if isinstance(error, UtilizationExceededError):
        args = {"peak": error.peak, "witness": error.witness}
    elif isinstance(error, IntervalAllocationError):
        args = {"subset_index": error.subset_index}
    elif isinstance(error, IntervalSchedulingError):
        args = {
            "interval_index": error.interval_index,
            "required": error.required,
            "available": error.available,
        }
    elif isinstance(error, StaticallyRefutedError):
        args = {"refutations": [dict(r) for r in error.refutations]}
    return {
        "format": CACHE_VERSION,
        "kind": "failure",
        "type": type(error).__name__,
        "stage": error.stage,
        "message": str(error),
        "args": args,
    }


def entry_to_error(entry: Mapping[str, Any]) -> SchedulingError:
    """Reconstruct the exact error class a ``"failure"`` entry recorded."""
    kind = entry["type"]
    args = entry.get("args", {})
    error: SchedulingError
    if kind == "UtilizationExceededError":
        error = UtilizationExceededError(
            float(args["peak"]), args.get("witness", "")
        )
    elif kind == "IntervalAllocationError":
        error = IntervalAllocationError(int(args["subset_index"]))
    elif kind == "IntervalSchedulingError":
        error = IntervalSchedulingError(
            int(args["interval_index"]),
            float(args["required"]),
            float(args["available"]),
        )
    elif kind == "StaticallyRefutedError":
        error = StaticallyRefutedError(
            [dict(r) for r in args.get("refutations", [])]
        )
    else:
        error = SchedulingError(entry["message"])
    # Keep the original message text rather than the regenerated one.
    error.args = (entry["message"],)
    return error


#: Entries the memory tier keeps when a disk tier backs it.
_MEMORY_TIER_ENTRIES = 1024


class ScheduleCache:
    """Content-addressed schedule cache (memory tier + optional disk tier).

    Parameters
    ----------
    directory:
        When given, entries are also persisted as
        ``<directory>/<key[:2]>/<key>.json`` — sharded by the first two
        hex digits of the content key so concurrent worker processes
        spread their directory operations over 256 subdirectories
        instead of contending on one — and survive the process;
        multiple processes may share the directory (writes are atomic).
        The memory tier in front of it is then a least-recently-used
        window of bounded size; eviction is invisible (the entry is
        re-read from disk on its next use).
        When ``None`` the cache is purely in-memory and keeps every
        entry.
    """

    def __init__(self, directory: str | Path | None = None):
        # A shell leaves ``--cache-dir=~/x`` (or a quoted one) unexpanded.
        self.directory = (
            Path(directory).expanduser() if directory is not None else None
        )
        self._memory: OrderedDict[str, dict[str, Any]] = OrderedDict()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._memory)

    def __repr__(self) -> str:
        tier = str(self.directory) if self.directory else "memory"
        return (
            f"<ScheduleCache [{tier}] {len(self._memory)} entries, "
            f"{self.stats.hits}h/{self.stats.misses}m>"
        )

    def _disk_path(self, key: str) -> Path:
        assert self.directory is not None
        return self.directory / key[:2] / f"{key}.json"

    def _remember(self, key: str, entry: dict[str, Any]) -> None:
        """Make ``entry`` the memory tier's most recent; behind a disk
        tier, evict the least recent one past the bound."""
        self._memory[key] = entry
        self._memory.move_to_end(key)
        if (
            self.directory is not None
            and len(self._memory) > _MEMORY_TIER_ENTRIES
        ):
            self._memory.popitem(last=False)

    def _lookup(self, key: str) -> dict[str, Any] | None:
        """The entry under ``key``: memory first, then disk."""
        entry = self._memory.get(key)
        if entry is None and self.directory is not None:
            entry = self._read_disk(key)
        if entry is not None:
            self._remember(key, entry)
        return entry

    def fetch(
        self, key: str, topology: "Topology | None" = None
    ) -> "ScheduledRouting | None":
        """Look up a key; see the module docstring for the contract."""
        entry = self._lookup(key)
        if entry is None:
            self.stats.misses += 1
            return None
        if entry.get("kind") not in ("schedule", "failure"):
            # A diagnosis (or future) entry under a schedule key: a bug
            # upstream, but never replay it as a compilation result.
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        if entry["kind"] == "failure":
            raise entry_to_error(entry)
        return entry_to_routing(entry, topology, key)

    def store(self, key: str, routing: "ScheduledRouting") -> None:
        """Record a successful compilation."""
        self._put(key, routing_to_entry(routing))

    def store_failure(self, key: str, error: SchedulingError) -> None:
        """Record a compilation failure (negative caching)."""
        self._put(key, error_to_entry(error))

    def store_diagnosis(self, key: str, diagnosis: Any) -> None:
        """Record a :class:`~repro.diagnose.Diagnosis` (positive or not).

        Diagnosis entries use keys from
        :func:`~repro.cache.keys.diagnosis_cache_key`, a key space
        disjoint from schedule keys, so they never shadow a compiled
        schedule.
        """
        self._put(
            key,
            {
                "format": CACHE_VERSION,
                "kind": "diagnosis",
                "diagnosis": diagnosis.to_dict(),
            },
        )

    def fetch_diagnosis(self, key: str) -> Any | None:
        """Look up a stored diagnosis; ``None`` on miss or wrong kind."""
        entry = self._lookup(key)
        if entry is None or entry.get("kind") != "diagnosis":
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        from repro.diagnose.certificates import Diagnosis

        return Diagnosis.from_dict(entry["diagnosis"])

    def contains(self, key: str) -> bool:
        """Whether a key is present in either tier.

        A pure existence probe: it touches no counters and deserializes
        nothing, so callers validating an *external* memo (the serve
        farm's result memo) can check that the backing entry still
        exists without skewing hit rates.
        """
        if key in self._memory:
            return True
        if self.directory is not None:
            return self._disk_path(key).exists()
        return False

    def fetch_artifact(self, key: str, stage: str) -> dict[str, Any] | None:
        """Look up one stage artifact; ``None`` on miss or wrong kind.

        Counts a per-stage hit or miss in :attr:`CacheStats.stages` and
        never touches the scalar schedule-level counters.
        """
        entry = self._lookup(key)
        if (
            entry is None
            or entry.get("kind") != "artifact"
            or entry.get("stage") != stage
        ):
            self.stats.record_stage(stage, "misses")
            return None
        self.stats.record_stage(stage, "hits")
        payload = entry.get("payload")
        return payload if isinstance(payload, dict) else None

    def store_artifact(
        self, key: str, stage: str, payload: Mapping[str, Any]
    ) -> None:
        """Record one stage artifact (per-stage store counter only)."""
        entry = {
            "format": CACHE_VERSION,
            "kind": "artifact",
            "stage": stage,
            "payload": dict(payload),
        }
        self._remember(key, entry)
        self.stats.record_stage(stage, "stores")
        self._write_disk(key, entry)

    def clear(self) -> None:
        """Drop the in-memory tier (disk entries stay)."""
        self._memory.clear()

    def _put(self, key: str, entry: dict[str, Any]) -> None:
        self._remember(key, entry)
        self.stats.stores += 1
        self._write_disk(key, entry)

    def _write_disk(self, key: str, entry: dict[str, Any]) -> None:
        if self.directory is None:
            return
        path = self._disk_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = json.dumps(entry, sort_keys=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(blob)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):  # pragma: no cover - cleanup path
                os.unlink(tmp)
            raise

    def _read_disk(self, key: str) -> dict[str, Any] | None:
        path = self._disk_path(key)
        if not path.exists():
            return None
        try:
            entry = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            entry = None
        if not isinstance(entry, dict) or entry.get("format") != CACHE_VERSION:
            # Torn write, tampering, or a stale format: drop and count.
            self.stats.invalidations += 1
            try:
                path.unlink()
            except OSError:  # pragma: no cover - racing unlink
                pass
            return None
        return entry
