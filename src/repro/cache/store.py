"""The schedule cache: an in-memory tier over an optional on-disk tier.

Entries are JSON documents addressed by the content key of
:mod:`repro.cache.keys`.  Four kinds exist, in two homes on disk:

- ``"schedule"`` — a successful compilation: the serialized
  :class:`~repro.core.switching.CommunicationSchedule` (via
  :mod:`repro.core.io`) plus the subsets/allocations/attempt metadata
  needed to rebuild a full :class:`~repro.core.compiler.ScheduledRouting`;
- ``"failure"`` — a *negative* entry recording which
  :class:`~repro.errors.SchedulingError` a compilation raised, so the
  feasibility matrix's infeasible points also hit on warm runs instead
  of re-running the LPs just to fail identically;
- ``"diagnosis"`` — a :class:`~repro.diagnose.Diagnosis` under a
  :func:`~repro.cache.keys.diagnosis_cache_key`;
- ``"artifact"`` — one pipeline stage's output under an artifact key
  from :mod:`repro.cache.artifacts`, the unit of delta compilation,
  counted per stage so delta recompiles don't skew schedule hit rates.

Every kind goes through :meth:`ScheduleCache.get` and
:meth:`ScheduleCache.put`, so all count, bound and invalidate the same
way.  :meth:`ScheduleCache.fetch`, the schedule codec over that pair,
returns a rebuilt routing on a schedule hit, **raises** the
reconstructed error on a failure hit, and returns ``None`` on a miss.

One rule picks an entry's home on disk.  The kinds something outside
``get`` addresses by *path* (the serve memo's backing check, the
benchmark's codec probe) — schedule, failure, diagnosis: one per compile
— are files ``<dir>/<key[:2]>/<key>.json``, written atomically (temp
file + ``os.replace``).  Artifacts, ~17 per cold compile and read only
by ``get``, are lines (key, tab, entry JSON) of one append-only pack per
directory, each a single ``O_APPEND`` write, found through a per-object
``key -> (offset, length)`` index built on the first artifact probe and
extended from the bytes appended since; a key's last line wins.  Sharing
processes never observe a torn entry of either home; entries of an
unknown format version, unparsable, or rejected by their decoder are
dropped and counted as invalidations.

Behind a disk tier the memory tier is a bounded LRU (a long-lived serve
worker otherwise keeps ~18 entries per cold compile forever): an evicted
entry is simply the next disk hit, with the identical result.  A purely
in-memory cache is the only copy of its entries and never evicts.
"""

from __future__ import annotations

import functools
import json
import os
import tempfile
from collections import Counter, OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, TypeVar

from repro.cache.keys import CACHE_VERSION
from repro.core.assignment import PathAssignment
from repro.core.interval_allocation import IntervalAllocation
from repro.core.io import schedule_from_dict, schedule_to_dict
from repro.core.utilization import topology_tables, utilization_report
from repro.errors import (
    IntervalAllocationError,
    IntervalSchedulingError,
    ReproError,
    SchedulingError,
    UtilizationExceededError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.compiler import ScheduledRouting
    from repro.topology.base import Topology

T = TypeVar("T")


#: The scope of schedule, failure and diagnosis entries (an artifact's is
#: its stage name).
SCHEDULE_SCOPE = "schedule"


class CacheStats(Counter[str]):
    """Event counters of one cache instance, keyed ``"<scope>.<event>"``.

    A scope is :data:`SCHEDULE_SCOPE` or an artifact stage name, so
    artifact traffic never skews the schedule-level hit rate (which CI
    gates on for the matrix and serve load tests).  String keys keep a
    delta (``stats - before``) JSON-able, so a worker ships it back and
    the parent adds it with ``totals.update(delta)``.  :meth:`as_dict`
    renders the schedule scope as top-level members and every other
    scope under ``"stages"``, zero-filled from :attr:`EVENTS`.
    """

    #: The events a scope counts; ``"stages"`` rows render the first three.
    EVENTS = ("hits", "misses", "stores", "invalidations")

    def _schedule(self, event: str) -> int:
        return self[f"{SCHEDULE_SCOPE}.{event}"]

    hits = property(lambda self: self._schedule("hits"))
    misses = property(lambda self: self._schedule("misses"))
    stores = property(lambda self: self._schedule("stores"))

    @property
    def invalidations(self) -> int:
        """Entries dropped as torn, old-format or undecodable, any scope."""
        return sum(
            n for key, n in self.items() if key.endswith(".invalidations")
        )

    @property
    def hit_rate(self) -> float:
        """Fraction of schedule lookups served from the cache (0 when unused)."""
        hits, misses = self._schedule("hits"), self._schedule("misses")
        return hits / (hits + misses) if hits + misses else 0.0

    def as_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalidations": self.invalidations,
            "hit_rate": round(self.hit_rate, 4),
        }
        scopes = {key.rpartition(".")[0] for key in self} - {SCHEDULE_SCOPE}
        if scopes:
            payload["stages"] = {
                scope: {
                    event: self[f"{scope}.{event}"]
                    for event in self.EVENTS[:3]
                }
                for scope in sorted(scopes)
            }
        return payload


def persist_cache_stats(cache_dir: str | Path, stats: CacheStats) -> Path:
    """Atomically write aggregated cache counters next to the entries.

    Both graceful-shutdown consumers of the compiler — the experiment
    matrix's ``jobs=N`` fan-out and the ``repro.serve`` worker pool —
    call this from their :class:`~repro.pool.GracefulPool` shutdown
    hooks, so even a SIGTERM-drained run leaves
    ``<cache_dir>/cache-stats.json`` behind.  Returns the written path.
    """
    path = Path(cache_dir).expanduser() / "cache-stats.json"
    _write_atomic(path, stats.as_dict())
    return path


def _in_directory(directory: Path, create: Callable[[], T]) -> T:
    """``create()``, making ``directory`` first only if it proves missing."""
    try:
        return create()
    except FileNotFoundError:
        directory.mkdir(parents=True, exist_ok=True)
        return create()


def _write_atomic(path: Path, document: Mapping[str, Any]) -> None:
    """Write one JSON document via a sibling temp file + ``os.replace``,
    so processes sharing the directory never observe a torn one."""
    blob = json.dumps(document, sort_keys=True)
    prefix = f".{path.name[:8]}-"
    fd, tmp = _in_directory(
        path.parent, lambda: tempfile.mkstemp(".tmp", prefix, path.parent)
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):  # pragma: no cover - cleanup path
            os.unlink(tmp)
        raise


#: What times *this* process instead of describing the instance: the
#: ``solver_stats`` wall time and a served result's per-stage ``profile``.
#: :func:`routing_to_entry` strips the former, so a cache hit has no
#: timing, which is the truth.  Every other byte a compile, a cache or a
#: served result emits is compared across processes by the fuzzer's
#: determinism leg (:func:`repro.check.fuzz.determinism_leg`).
VOLATILE_SOLVER_STATS = ("lp_wall_ms",)
VOLATILE_RESULT_FIELDS = ("profile",)


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
    :mod:`repro.core.io` (and is checked on load); the utilisation
    report is recomputed from the deserialized bounds and paths on the
    given topology — a cheap matrix evaluation, no LP work.  Each path
    is validated once per topology object, as a compile's are (the
    ``validated`` memo of its :class:`~repro.core.utilization.TopologyTables`).
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
        schedule.assignment,
        validated=topology_tables(topology).validated,
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
        When given, entries are also persisted — artifacts as records of
        ``<directory>/artifacts.pack``, every other kind as
        ``<directory>/<key[:2]>/<key>.json``, sharded by the first two
        hex digits of the content key so concurrent worker processes
        spread their directory operations over 256 subdirectories
        instead of contending on one — and survive the process;
        multiple processes may share the directory (file writes are
        atomic renames, pack writes single appends).
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
        # The pack (unused without a directory) as last seen: key -> span, size.
        self._pack = (self.directory or Path()) / "artifacts.pack"
        self._index: dict[str, tuple[int, int]] = {}
        self._indexed = 0

    def __len__(self) -> int:
        return len(self._memory)

    def __repr__(self) -> str:
        tier = str(self.directory) if self.directory else "memory"
        return (
            f"<ScheduleCache [{tier}] {len(self._memory)} in memory, "
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

    def get(
        self,
        key: str,
        kinds: tuple[str, ...],
        decode: Callable[[dict[str, Any]], T],
        scope: str = SCHEDULE_SCOPE,
    ) -> T | None:
        """The decoded entry under ``key`` (memory first, then disk), or
        ``None`` on a miss; counts one hit or miss under ``scope``.

        An entry of another kind (or artifact stage than ``scope``) is
        a miss, never replayed.  One of the right kind whose ``decode``
        raises ``KeyError``/``TypeError``/``ValueError``/``ReproError``
        is stale or damaged: it is dropped from both tiers, counted as
        an invalidation and reported as a miss, so the caller recomputes
        and overwrites it.
        """
        entry = self._memory.get(key)
        if entry is None and self.directory is not None:
            entry = self._read_disk(key, scope, packed="artifact" in kinds)
        if (
            entry is not None
            and entry.get("kind") in kinds
            and (entry["kind"] != "artifact" or entry.get("stage") == scope)
        ):
            try:
                value = decode(entry)
            except (KeyError, TypeError, ValueError, ReproError):
                self._invalidate(key, scope)
            else:
                self._remember(key, entry)
                self.stats[f"{scope}.hits"] += 1
                return value
        self.stats[f"{scope}.misses"] += 1
        return None

    def put(
        self, key: str, entry: dict[str, Any], scope: str = SCHEDULE_SCOPE
    ) -> None:
        """Record ``entry`` in both tiers; counts one store under ``scope``."""
        self._remember(key, entry)
        self.stats[f"{scope}.stores"] += 1
        if self.directory is None:
            return
        if entry.get("kind") != "artifact":
            _write_atomic(self._disk_path(key), entry)
            return
        record = f"{key}\t{json.dumps(entry, sort_keys=True)}\n".encode()
        # One O_APPEND write(2): never interleaved, and ``tell()`` is its end.
        with _in_directory(self.directory, lambda: open(self._pack, "ab", 0)) as f:
            f.write(record)
            start = f.tell() - len(record)
        self._index[key] = (start, len(record))
        if self._indexed == start:  # nobody else wrote in between
            self._indexed += len(record)

    def fetch(
        self, key: str, topology: "Topology | None" = None
    ) -> "ScheduledRouting | None":
        """Look up a key; see the module docstring for the contract."""

        def decode(entry: dict[str, Any]) -> "ScheduledRouting | SchedulingError":
            if entry["kind"] == "failure":
                return entry_to_error(entry)
            return entry_to_routing(entry, topology, key)

        hit = self.get(key, ("schedule", "failure"), decode)
        if isinstance(hit, SchedulingError):
            raise hit
        return hit

    def store(self, key: str, routing: "ScheduledRouting") -> None:
        """Record a successful compilation."""
        self.put(key, routing_to_entry(routing))

    def store_failure(self, key: str, error: SchedulingError) -> None:
        """Record a compilation failure (negative caching)."""
        self.put(key, error_to_entry(error))

    def contains(self, key: str) -> bool:
        """Whether a key is present in either tier.

        A pure existence probe: it touches no counters and deserializes
        nothing, so callers validating an *external* memo (the serve
        farm's result memo) can check that the backing entry still
        exists without skewing hit rates.
        """
        if key in self._memory:
            return True
        if self.directory is None:
            return False
        return self._disk_path(key).exists() or self._packed(key) is not None

    def clear(self) -> None:
        """Drop the in-memory tier (disk entries stay)."""
        self._memory.clear()

    def _read_disk(self, key: str, scope: str, packed: bool) -> dict[str, Any] | None:
        try:
            raw = self._packed(key) if packed else self._disk_path(key).read_bytes()
            if raw is None:
                return None
            entry = json.loads(raw)
        except FileNotFoundError:
            return None
        except (ValueError, OSError):
            entry = None
        if not isinstance(entry, dict) or entry.get("format") != CACHE_VERSION:
            # Torn write, tampering, or a stale format: drop and count.
            self._invalidate(key, scope)
            return None
        return entry

    def _packed(self, key: str) -> bytes | None:
        """The JSON of ``key``'s last line in the pack (``b""`` if its span no
        longer holds one), first indexing what any writer appended since."""
        try:
            size = os.stat(self._pack).st_size
            if size < self._indexed:  # cleared or swapped under us
                self._index.clear()
                self._indexed = 0
            if size == self._indexed and key not in self._index:
                return None  # the common miss: one stat
            with open(self._pack, "rb") as pack:
                pack.seek(self._indexed)
                # Whole lines only: a partial tail is indexed once it ends.
                for line in pack.read(size - self._indexed).split(b"\n")[:-1]:
                    name = line.partition(b"\t")[0].decode("latin-1")
                    self._index[name] = (self._indexed, len(line) + 1)
                    self._indexed += len(line) + 1
                if key not in self._index:
                    return None
                pack.seek(self._index[key][0])
                line = pack.read(self._index[key][1])
        except FileNotFoundError:
            self._index.clear()
            self._indexed = 0
            return None
        name, _, body = line.partition(b"\t")
        return body if name == key.encode() and body.endswith(b"\n") else b""

    def _invalidate(self, key: str, scope: str) -> None:
        """Drop ``key`` from both tiers and count it under ``scope``."""
        self._memory.pop(key, None)
        self.stats[f"{scope}.invalidations"] += 1
        if self.directory is not None and self._index.pop(key, None) is None:
            try:
                self._disk_path(key).unlink()
            except OSError:  # pragma: no cover - racing unlink
                pass


@functools.cache
def process_cache(directory: str | None) -> ScheduleCache | None:
    """This process's one :class:`ScheduleCache` on ``directory``.

    What a pool worker (the compile farm's, the matrix's) opens per task:
    the memory tier and the pack index then warm up across tasks — a
    fresh object scans ``artifacts.pack`` from byte 0 on its first
    artifact probe — and a task reports its own share of the counters as
    ``cache.stats - before``, ``before`` being a ``cache.stats.copy()``.
    """
    return ScheduleCache(directory) if directory is not None else None
