"""Job model of the compile farm: requests, lifecycle, and the store.

A :class:`JobRequest` names one problem instance the same way the CLI
does — (workload models, topology, bandwidth, load, allocator, seed)
plus compiler-config overrides — so the wire format stays a small JSON
object and workers rebuild the instance deterministically on their side.
Validation happens here (:meth:`JobRequest.from_payload` raises
:class:`BadRequest` on malformed input), keeping the HTTP layer dumb.

A :class:`Job` walks the lifecycle::

    queued -> admitted -> running -> done
           \\-> rejected             \\-> failed

``rejected`` is the admission fast path (the static diagnoser refuted
the instance — no worker ever saw it); ``done`` covers both feasible
and *proven-infeasible* compilations (an infeasibility verdict is a
successful answer); ``failed`` is reserved for internal errors.  Every
transition appends a structured event consumed by the streaming
``/v1/jobs/<id>/events`` endpoint.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import json
import time
from dataclasses import dataclass, field
from typing import Any, Mapping, get_type_hints

from repro.core.compiler import CompilerConfig
from repro.errors import ReproError
from repro.experiments.setup import InstanceSpec, normalized_load

__all__ = [
    "BadRequest",
    "Job",
    "JobRequest",
    "JobStore",
    "JOB_ADMITTED",
    "JOB_DONE",
    "JOB_FAILED",
    "JOB_QUEUED",
    "JOB_REJECTED",
    "JOB_RUNNING",
    "TERMINAL_STATES",
]

JOB_QUEUED = "queued"
JOB_ADMITTED = "admitted"
JOB_REJECTED = "rejected"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"

#: States a job never leaves.
TERMINAL_STATES = frozenset({JOB_REJECTED, JOB_DONE, JOB_FAILED})

#: Request kinds the farm accepts.
KINDS = ("compile", "diagnose", "check")


class BadRequest(ReproError):
    """A malformed or unsupported job payload (HTTP 400)."""


def _coerce(what: str, name: str, kind: type, value: Any) -> Any:
    """One JSON value as the type its field declares, or ``BadRequest``.

    Strict on purpose: ``bool("false")`` and ``int(3.7)`` would name a
    different cache identity than the one the client asked for.
    """
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is bool and isinstance(value, bool):
        return value
    if kind is int and number and (
        isinstance(value, int) or value.is_integer()
    ):
        return int(value)
    if kind is float and number:
        return float(value)
    if kind is str and isinstance(value, str):
        return value
    raise BadRequest(
        f"{what} {name!r} must be {kind.__name__}, got {value!r}"
    )


@dataclass(frozen=True, kw_only=True)
class JobRequest(InstanceSpec):
    """One validated compile/diagnose/check request.

    The inherited :class:`~repro.experiments.setup.InstanceSpec` fields
    pin the problem instance exactly as the CLI flags of the same names
    do; ``config`` holds :class:`~repro.core.compiler.CompilerConfig`
    overrides — any field, typed as the field declares
    (unknown keys are rejected, not ignored — a typo must not silently
    change the cache key).
    """

    kind: str = "compile"
    load: float
    config: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown kind {self.kind!r}; expected one of "
                f"{', '.join(KINDS)}"
            )
        normalized_load(self.load)
        self.compiler_config()  # a knob no compile can run is refused here

    @classmethod
    def from_payload(cls, payload: Any) -> "JobRequest":
        """Validate an untrusted JSON payload into a request."""
        if not isinstance(payload, Mapping):
            raise BadRequest("request body must be a JSON object")
        raw_config = payload.get("config", {})
        if not isinstance(raw_config, Mapping):
            raise BadRequest("config must be a JSON object")
        config: list[tuple[str, Any]] = []
        for key in sorted(raw_config):
            if key not in _OVERRIDE_TYPES:
                raise BadRequest(f"unknown config field {key!r}")
            config.append((key, _coerce(
                "config field", key, _OVERRIDE_TYPES[key], raw_config[key]
            )))
        values: dict[str, Any] = {"config": tuple(config)}
        for name, kind, required in _WIRE_FIELDS:
            if name in payload:
                values[name] = _coerce("field", name, kind, payload[name])
            elif required:
                raise BadRequest(f"missing required field {name!r}")
        try:
            return cls(**values)
        except ValueError as error:
            raise BadRequest(str(error)) from None

    @classmethod
    def from_canonical(cls, payload: Mapping[str, Any]) -> "JobRequest":
        """Rebuild a request from :meth:`canonical` output (worker side).

        The canonical form is already validated; this constructor only
        restores the shape JSON flattened (the config pair list).
        """
        values = dict(payload)
        values["config"] = tuple((str(k), v) for k, v in payload["config"])
        return cls(**values)

    def compiler_config(self) -> CompilerConfig:
        """The effective compiler config (request seed + overrides)."""
        fields: dict[str, Any] = {"seed": self.seed}
        fields.update(dict(self.config))
        return CompilerConfig(**fields)

    def canonical(self) -> dict[str, Any]:
        """Deterministic JSON-able form (worker payloads, dedup keys)."""
        return {
            "kind": self.kind,
            "topology": self.topology,
            "bandwidth": self.bandwidth,
            "models": self.models,
            "load": self.load,
            "allocator": self.allocator,
            "seed": self.seed,
            "config": [[k, v] for k, v in self.config],
        }

    def instance_signature(self) -> str:
        """Stable identity of the *instance* this request names.

        Two requests with the same signature compile the same problem
        under the same config — the single-flight map coalesces on this
        (per kind: a ``check`` does strictly more work than a
        ``compile``, so they never share a flight).
        """
        return json.dumps(self.canonical(), sort_keys=True)


_REQUEST_TYPES = get_type_hints(JobRequest)

#: ``(name, declared type, required)`` of every scalar request field.
_WIRE_FIELDS = tuple(
    (f.name, _REQUEST_TYPES[f.name], f.default is dataclasses.MISSING)
    for f in dataclasses.fields(JobRequest)
    if f.name != "config"
)

#: ``config`` keys a request may override: every field of
#: :class:`CompilerConfig`, typed as declared there.
_OVERRIDE_TYPES = get_type_hints(CompilerConfig)


@dataclass
class Job:
    """One accepted request working through the farm."""

    id: str
    request: JobRequest
    key: str  #: content-addressed schedule-cache key of the instance
    state: str = JOB_QUEUED
    submitted_at: float = field(default_factory=time.time)
    finished_at: float | None = None
    result: dict[str, Any] | None = None
    error: dict[str, Any] | None = None
    #: Duplicate submissions that attached to this flight.
    coalesced: int = 0
    #: Lifecycle + stage progress events, in order.
    events: list[dict[str, Any]] = field(default_factory=list)
    _done: asyncio.Event = field(default_factory=asyncio.Event, repr=False)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def add_event(self, name: str, **args: Any) -> dict[str, Any]:
        """Append one structured progress event."""
        event = {
            "seq": len(self.events),
            "t": round(time.time() - self.submitted_at, 6),
            "event": name,
        }
        if args:
            event.update(args)
        self.events.append(event)
        return event

    def transition(self, state: str, **args: Any) -> None:
        """Move to ``state`` and record the transition event."""
        self.state = state
        if state in TERMINAL_STATES:
            self.finished_at = time.time()
        self.add_event(state, **args)
        if self.terminal:
            self._done.set()

    async def wait(self, timeout: float | None = None) -> bool:
        """Block until the job is terminal; False on timeout."""
        try:
            await asyncio.wait_for(self._done.wait(), timeout)
        except asyncio.TimeoutError:
            return False
        return True

    def snapshot(self) -> dict[str, Any]:
        """The JSON view served by ``/v1/jobs/<id>``."""
        payload: dict[str, Any] = {
            "id": self.id,
            "kind": self.request.kind,
            "key": self.key,
            "state": self.state,
            "request": self.request.canonical(),
            "submitted_at": self.submitted_at,
            "coalesced": self.coalesced,
        }
        if self.finished_at is not None:
            payload["finished_at"] = self.finished_at
            payload["elapsed_ms"] = round(
                (self.finished_at - self.submitted_at) * 1000.0, 3
            )
        if self.result is not None:
            payload["result"] = self.result
        if self.error is not None:
            payload["error"] = self.error
        return payload


class JobStore:
    """Jobs by id, with a bounded history of finished ones.

    The store never drops a non-terminal job; terminal jobs age out
    oldest-first once ``history_limit`` is exceeded (their results live
    on in the schedule cache — the store is for polling, not archival).
    """

    def __init__(self, history_limit: int) -> None:
        self.history_limit = history_limit
        self._jobs: dict[str, Job] = {}
        self._ids = itertools.count(1)

    def new_id(self) -> str:
        return f"job-{next(self._ids)}"

    def add(self, job: Job) -> None:
        self._jobs[job.id] = job
        self._evict()

    def get(self, job_id: str) -> Job | None:
        return self._jobs.get(job_id)

    def __len__(self) -> int:
        return len(self._jobs)

    def active(self) -> list[Job]:
        """Jobs not yet terminal, oldest first."""
        return [job for job in self._jobs.values() if not job.terminal]

    def _evict(self) -> None:
        excess = len(self._jobs) - self.history_limit
        if excess <= 0:
            return
        # Oldest first, and no further than the ``excess`` terminal jobs
        # to drop: a full store evicts on every add.
        terminal = (jid for jid, job in self._jobs.items() if job.terminal)
        for job_id in list(itertools.islice(terminal, excess)):
            del self._jobs[job_id]
