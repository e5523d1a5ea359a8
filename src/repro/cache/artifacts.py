"""Per-stage delta compilation: artifact keys over the stage pipeline.

The monolithic schedule key of :mod:`repro.cache.keys` is all-or-nothing:
change one message size, drop one link, and the whole compilation is
cold again even though most of the LP work would come out identical.
This module generalizes what :mod:`repro.faults.repair` proved locally —
partial recompilation is sound — into content-addressed **artifact
keys** for the expensive pipeline stages:

- ``assign-paths`` — keyed on the *content* of the time bounds, the
  minimal-path candidate pools, and the heuristic knobs (seed,
  ``max_paths``, ``max_restarts``).  The pools insight does the heavy
  lifting: a topology perturbation that touches no candidate pool (e.g.
  dropping an unused link) leaves the key unchanged, so the whole
  descent is skipped;
- ``allocate+schedule`` — one artifact per maximal subset, keyed on the
  interval lengths plus each member's duration, activity row and path
  links (everything the two LPs consume).  Failures are stored as
  *negative* artifacts so a delta recompile replays the feedback/retry
  loop byte-identically.

Keys hash actual stage **inputs**, never instance provenance, so an
artifact is reused exactly when stage determinism guarantees the same
output — byte-identity of delta recompiles (modulo wall times and LP
tallies) falls out by construction and is enforced by the fuzz corpus'
delta differential.  Every other stage is recomputed: a layer exists
only where EXPERIMENTS.md ("Which cache layers earn their keep") shows
its replay beating the stage — Omega assembly and the LSD→MSD route cost
what their validated decode costs, so they have none.

:class:`DeltaState` is the artifact codec over ``ScheduleCache.get`` /
``put``; traffic is counted under the stage name (``"stages"`` in
``CacheStats.as_dict()``), never in the schedule-level counters.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.cache.keys import CACHE_VERSION, canonical_config, content_digest
from repro.cache.store import ScheduleCache, entry_to_error, error_to_entry
from repro.core.assignment import PathAssignment
from repro.core.interval_allocation import IntervalAllocation
from repro.core.interval_scheduling import FeasibleSetSlot, IntervalSchedule
from repro.core.utilization import topology_tables
from repro.errors import SchedulingError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.compiler import CompilerConfig
    from repro.core.timebounds import TimeBoundSet
    from repro.tfg.analysis import TFGTiming
    from repro.topology.base import Topology

__all__ = [
    "DeltaState",
    "artifact_key",
    "bounds_content",
    "pools_content",
]

#: Artifact stage names (also the ``CacheStats`` scopes they count under).
STAGE_ASSIGN = "assign-paths"
STAGE_INTERVAL = "allocate+schedule"

#: What an ``allocate+schedule`` artifact holds, unless it is negative.
SubsetOutcome = tuple[IntervalAllocation, dict[int, IntervalSchedule]]


def artifact_key(stage: str, inputs: Mapping[str, Any]) -> str:
    """The content key of one stage artifact.

    ``inputs`` must canonicalize everything the stage reads; the
    ``"artifact"`` marker keeps the key space disjoint from schedule and
    diagnosis keys, and :data:`~repro.cache.keys.CACHE_VERSION` retires
    old artifacts whenever the payload layout changes.
    """
    return content_digest(
        {"version": CACHE_VERSION, "artifact": stage, "inputs": dict(inputs)}
    )


def bounds_content(bounds: "TimeBoundSet") -> dict[str, Any]:
    """The time-bound set as canonical content (order-preserving).

    Message order is part of the content: the AssignPaths RNG consumes
    pools in message order, so bound sets equal up to reordering must
    *not* collapse to one digest.
    """
    return {
        "tau_in": bounds.tau_in,
        "bounds": [
            [
                name,
                b.release,
                b.deadline,
                b.duration,
                [[start, end] for start, end in b.windows],
            ]
            for name, b in bounds.bounds.items()
        ],
    }


def pools_content(
    pools: Mapping[str, Sequence[Sequence[int]]],
) -> list[list[Any]]:
    """Candidate path pools as canonical content (order-preserving).

    Pool enumeration order matters — the heuristic's random initial
    assignments index into it — so the pools are hashed exactly as
    enumerated.  The pools also determine every message's endpoints
    (each path runs source → destination), so no separate endpoint
    digest is needed.
    """
    return [
        [name, [list(path) for path in pool]] for name, pool in pools.items()
    ]


class DeltaState:
    """Artifact keys + codec for one delta compilation.

    Created by :func:`~repro.core.compiler.compile_schedule` whenever a
    cache is attached and the monolithic key missed; the pipeline stages
    consult it through ``context.delta``.  A stale or damaged payload is
    ``ScheduleCache.get``'s invalidated miss.

    ``timing``, ``topology``, ``allocation`` and ``tau_in`` are unused
    (keys hash stage inputs read off the context); they stay because
    ``benchmarks/e2e/compile_op.py`` constructs this class positionally
    and only a benchmark PR may edit it (ROADMAP item 1 narrows the
    signature to ``DeltaState(cache, config)``).
    """

    def __init__(
        self,
        cache: ScheduleCache,
        timing: "TFGTiming",
        topology: "Topology",
        allocation: Mapping[str, int],
        tau_in: float,
        config: "CompilerConfig",
    ) -> None:
        self.cache = cache
        self.config = config
        self.backend_name: str = canonical_config(config)["lp_backend"]
        # Recorded by the time-bounds stage.
        self.bounds_digest: str | None = None

    def _put(self, key: str, stage: str, payload: dict[str, Any]) -> None:
        entry = {
            "format": CACHE_VERSION,
            "kind": "artifact",
            "stage": stage,
            "payload": payload,
        }
        self.cache.put(key, entry, stage)

    # -- time bounds (recomputed; digest feeds downstream keys) ----------

    def record_bounds(self, bounds: "TimeBoundSet") -> None:
        self.bounds_digest = content_digest(bounds_content(bounds))

    # -- path assignment --------------------------------------------------

    def assignment_key(
        self, pools: Mapping[str, Sequence[Sequence[int]]], seed: int
    ) -> str:
        """Artifact key of the heuristic assignment for one attempt."""
        config = self.config
        return artifact_key(
            STAGE_ASSIGN,
            {
                "kind": "heuristic",
                "bounds": self.bounds_digest,
                "pools": pools_content(pools),
                "seed": seed,
                "max_paths": config.max_paths,
                "max_restarts": config.max_restarts,
            },
        )

    def fetch_assignment(
        self,
        key: str,
        topology: "Topology",
        endpoints: Mapping[str, tuple[int, int]],
    ) -> PathAssignment | None:
        """Rebuild a stored assignment; ``None`` on a miss."""

        def decode(entry: dict[str, Any]) -> PathAssignment:
            paths = {
                str(name): [int(n) for n in path]
                for name, path in entry["payload"]["paths"]
            }
            return PathAssignment(
                topology, dict(endpoints), paths,
                validated=topology_tables(topology).validated,
            )

        return self.cache.get(key, ("artifact",), decode, STAGE_ASSIGN)

    def store_assignment(self, key: str, assignment: PathAssignment) -> None:
        paths = [
            [name, list(assignment.path(name))] for name in assignment.messages
        ]
        self._put(key, STAGE_ASSIGN, {"paths": paths})

    # -- per-subset interval allocation + scheduling ----------------------

    def subset_key(
        self,
        bounds: "TimeBoundSet",
        assignment: PathAssignment,
        subset: tuple[str, ...],
        index: int,
    ) -> str:
        """Artifact key of one subset's allocation/scheduling outcome.

        Canonicalizes everything the two LPs (and the feedback loop
        between them) consume: the interval lengths, and per member its
        duration, activity row and path links.  The resolved backend
        name is included (different solvers may legitimately pick
        different optima).  ``index`` pins the error metadata
        (``subset_index``) of negative artifacts.
        """
        messages = []
        for name in subset:
            bound = bounds.bounds[name]
            row = bounds.activity[bounds.index[name]]
            messages.append(
                [
                    name,
                    bound.duration,
                    [int(flag) for flag in row],
                    [[u, v] for u, v in assignment.links(name)],
                ]
            )
        return artifact_key(
            STAGE_INTERVAL,
            {
                "lengths": list(bounds.intervals.lengths),
                "messages": messages,
                "subset_index": index,
                "feedback_rounds": self.config.feedback_rounds,
                "backend": self.backend_name,
            },
        )

    def fetch_subset(
        self, key: str, subset: tuple[str, ...]
    ) -> SubsetOutcome | None:
        """Replay one subset's stored outcome.

        Returns the (allocation, interval schedules) pair on a success
        hit, ``None`` on a miss — and **raises** the recorded
        :class:`~repro.errors.SchedulingError` on a negative hit,
        exactly as the live feedback loop would, so the compiler's retry
        machinery replays byte-identically.
        """

        def decode(entry: dict[str, Any]) -> SubsetOutcome | SchedulingError:
            payload = entry["payload"]
            if payload.get("outcome") == "failure":
                return entry_to_error(payload["error"])
            allocation = IntervalAllocation(
                subset=subset,
                allocation={
                    (str(name), int(k)): float(t)
                    for name, k, t in payload["cells"]
                },
                load_factor=float(payload["load_factor"]),
            )
            schedules = {
                int(k): IntervalSchedule(
                    interval=int(k),
                    slots=tuple(
                        FeasibleSetSlot(
                            messages=frozenset(str(m) for m in slot_messages),
                            duration=float(duration),
                        )
                        for slot_messages, duration in slots
                    ),
                )
                for k, slots in payload["schedules"]
            }
            return allocation, schedules

        hit = self.cache.get(key, ("artifact",), decode, STAGE_INTERVAL)
        if isinstance(hit, SchedulingError):
            raise hit
        return hit

    def store_subset(
        self,
        key: str,
        allocation: IntervalAllocation,
        schedules: Mapping[int, IntervalSchedule],
    ) -> None:
        payload = {
            "outcome": "success",
            "cells": [
                [name, k, t] for (name, k), t in allocation.allocation.items()
            ],
            "load_factor": allocation.load_factor,
            "schedules": [
                [
                    k,
                    [
                        [sorted(slot.messages), slot.duration]
                        for slot in schedule.slots
                    ],
                ]
                for k, schedule in schedules.items()
            ],
        }
        self._put(key, STAGE_INTERVAL, payload)

    def store_subset_failure(self, key: str, error: SchedulingError) -> None:
        """Record a negative artifact replaying the exact stage error."""
        self._put(
            key,
            STAGE_INTERVAL,
            {"outcome": "failure", "error": error_to_entry(error)},
        )
