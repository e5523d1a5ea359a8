"""The compile-farm service: admission, single-flight, dispatch.

:class:`CompileService` is the asyncio-side brain of ``repro.serve``;
the HTTP layer (:mod:`repro.serve.http`) is a thin codec over it.  A
submitted request flows through four gates, cheapest first:

1. **Validation** — :meth:`~repro.serve.jobs.JobRequest.from_payload`
   rejects malformed payloads before anything is allocated.
2. **Single-flight dedup** — requests whose canonical form matches a
   job already in flight *attach to that job* instead of spawning a
   second compilation; requests matching an already-finished job are
   answered from the service's result memo without touching a worker.
3. **Admission control** — the static diagnoser
   (:func:`repro.diagnose.diagnose_instance`) runs in the front-end;
   a sound refutation certificate turns the job away (state
   ``rejected``) in milliseconds, so provably hopeless instances never
   occupy a worker.  Diagnoses are cached in the shared cache's
   disjoint diagnosis key space — never as negative schedule entries.
4. **Dispatch** — surviving jobs run
   :func:`repro.serve.worker.execute_request` on a
   :class:`~repro.pool.GracefulPool` of processes sharing the sharded
   on-disk cache (``workers=0`` executes inline on a thread — the
   single-process mode tests and smoke runs use).

The worker's result is its one channel back: when it arrives, each
``compile`` span it carries as a stage row
(``result["profile"]["stages"]``) becomes one ``stage`` event in
``Job.events``, in order, before the terminal transition.  Those events
and the live lifecycle ones are what the chunked
``/v1/jobs/<id>/events`` stream reads.

Every gate emits a ``serve``-category trace instant (``enqueue`` /
``admit`` / ``reject`` / ``dispatch`` / ``complete`` / ``coalesce`` /
``fail``) carrying the in-flight queue depth, so a
:class:`~repro.trace.tracer.TraceRecorder` attached to the service
yields a load timeline alongside the compiler's own events.
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile
import time
from collections import Counter, OrderedDict
from dataclasses import dataclass
from pathlib import Path
from threading import Lock
from typing import TYPE_CHECKING, Any, Callable, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.diagnose.certificates import Diagnosis

from repro.cache.keys import diagnosis_cache_key, schedule_cache_key
from repro.cache.store import CacheStats, ScheduleCache, persist_cache_stats
from repro.pool import GracefulPool
from repro.serve import worker
from repro.serve.jobs import (
    JOB_ADMITTED,
    JOB_DONE,
    JOB_FAILED,
    JOB_REJECTED,
    JOB_RUNNING,
    Job,
    JobRequest,
    JobStore,
)
from repro.trace.tracer import NULL_TRACER, Tracer

__all__ = ["CompileService", "ServeConfig"]


@dataclass(frozen=True)
class ServeConfig:
    """Deployment knobs of one farm instance.

    ``workers=0`` executes requests inline on a thread of the serving
    process (no child processes) — the mode unit tests and the CI smoke
    job use; any positive count runs a :class:`~repro.pool.GracefulPool`
    of that many processes.  ``cache_dir=None`` creates an ephemeral
    shared cache directory for the service's lifetime (removed on
    shutdown); point it at a persistent path to keep warm results
    across restarts.
    """

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 0
    cache_dir: str | Path | None = None
    admission: bool = True
    history_limit: int = 4096


#: The request counters ``/v1/stats["service"]`` renders, in order.
#: ``coalesced`` counts duplicates that attached to an in-flight job;
#: ``fast_hits`` counts duplicates answered from the finished-result memo
#: without dispatch.
SERVICE_COUNTERS = (
    "submitted",
    "malformed",
    "coalesced",
    "fast_hits",
    "rejected",
    "dispatched",
    "completed",
    "failed",
)


class CompileService:
    """One compile farm: job store, caches, worker pool, statistics.

    Lifecycle: construct, :meth:`start` (from the event-loop thread),
    :meth:`submit` per request, :meth:`shutdown` once.  All public
    methods except the documented thread-safe helpers must be called
    on the event-loop thread.
    """

    def __init__(self, config: ServeConfig, tracer: Tracer = NULL_TRACER):
        self.config = config
        self.tracer = tracer
        self.store = JobStore(history_limit=self.config.history_limit)
        #: Request counters, keyed by :data:`SERVICE_COUNTERS`.
        self.stats: Counter[str] = Counter()
        #: The per-task cache-counter deltas every worker result ships
        #: back, so ``/v1/stats`` shows farm-wide cache behaviour even
        #: though each worker process owns its own memory tier.
        self.worker_cache = CacheStats()
        self.pool: GracefulPool | None = None
        self.cache: ScheduleCache | None = None
        self.cache_dir: Path | None = None
        self._ephemeral_cache = False
        self._inflight: dict[str, Job] = {}
        self._results: OrderedDict[str, dict[str, Any]] = OrderedDict()
        #: (setup, tau_in, schedule key) per request while its job is in
        #: flight; touched on the event-loop thread alone.
        self._instances: dict[JobRequest, tuple[Any, float, str]] = {}
        self._admit_lock = Lock()
        self._tasks: set[asyncio.Task] = set()
        self._draining = False
        self._started = time.time()
        #: Indirection for tests: the callable dispatched per job.
        self._execute: Callable[[Mapping[str, Any]], dict[str, Any]] = (
            worker.execute_request
        )

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Create the shared cache and the worker pool."""
        if self.config.cache_dir is not None:
            self.cache_dir = Path(self.config.cache_dir).expanduser()
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        else:
            self.cache_dir = Path(tempfile.mkdtemp(prefix="repro-serve-cache-"))
            self._ephemeral_cache = True
        self.cache = ScheduleCache(self.cache_dir)
        if self.config.workers > 0:
            self.pool = GracefulPool(
                max_workers=self.config.workers,
                on_shutdown=[self._persist_stats],
            )

    @property
    def draining(self) -> bool:
        """True once shutdown started (POSTs get 503 from here on)."""
        if self._draining:
            return True
        return self.pool is not None and self.pool.draining

    async def shutdown(self) -> None:
        """Drain in-flight jobs, persist cache stats, release resources.

        The same graceful path the matrix uses: running compilations
        finish (their cache writes land), queued ones are cancelled,
        and ``<cache_dir>/cache-stats.json`` records the totals.
        """
        self._draining = True
        if self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
        if self.pool is not None:
            await asyncio.to_thread(self.pool.shutdown, True)
        else:
            self._persist_stats()
        if self._ephemeral_cache and self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)

    def _persist_stats(self) -> None:
        """GracefulPool shutdown hook: flush merged cache counters."""
        if self.cache_dir is None or self.cache is None:
            return
        persist_cache_stats(self.cache_dir, self._farm_cache_stats())

    def _farm_cache_stats(self) -> CacheStats:
        """The front cache's counters merged with every worker's."""
        combined = CacheStats(self.worker_cache)
        if self.cache is not None:
            combined.update(self.cache.stats)
        return combined

    # -- submission ------------------------------------------------------

    def submit(self, payload: Any) -> Job:
        """Validate and enqueue one request; returns its (shared) job.

        Raises :class:`~repro.serve.jobs.BadRequest` on malformed input.
        Duplicates of an in-flight or finished request return the
        existing job object — callers observe single-flight semantics
        through the shared job id.
        """
        request = JobRequest.from_payload(payload)
        self.stats["submitted"] += 1
        signature = request.instance_signature()

        flight = self._inflight.get(signature)
        if flight is not None:
            flight.coalesced += 1
            self.stats["coalesced"] += 1
            self._trace("coalesce", flight)
            return flight

        done = self._results.get(signature)
        if done is not None and not self._memo_valid(done):
            # The backing cache entry vanished (cleared, pruned, or the
            # cache directory swapped) — a memo answer would resurrect a
            # result the cache no longer vouches for.  Drop the stale
            # memo and recompile.
            self._results.pop(signature, None)
            done = None

        # A finished duplicate takes its key from the memo and builds nothing.
        job = Job(
            id=self.store.new_id(),
            request=request,
            key=done["key"] if done is not None else self._instance(request)[2],
        )
        self.store.add(job)
        job.add_event("enqueue", queue_depth=len(self._inflight))
        self._trace("enqueue", job)

        if done is not None:
            self.stats["fast_hits"] += 1
            job.result = done.get("result")
            job.error = done.get("error")
            job.transition(done["state"], fast_path=True)
            self._trace("complete", job, fast_path=True)
            return job

        self._inflight[signature] = job
        task = asyncio.get_running_loop().create_task(
            self._run_job(job, signature)
        )
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return job

    def _instance(self, request: JobRequest) -> tuple[Any, float, str]:
        """(setup, tau_in, schedule key) for a request, built once per
        flight: single-flight dedup means one job owns each entry."""
        entry = self._instances.get(request)
        if entry is None:
            setup = request.build()
            tau_in = setup.tau_in_for_load(request.load)
            key = schedule_cache_key(
                setup.timing,
                setup.topology,
                setup.allocation,
                tau_in,
                request.compiler_config(),
            )
            entry = self._instances[request] = (setup, tau_in, key)
        return entry

    # -- job execution ---------------------------------------------------

    async def _run_job(self, job: Job, signature: str) -> None:
        try:
            await self._admit_and_dispatch(job)
        except Exception as error:  # noqa: BLE001 - job-scoped firewall
            job.error = {"type": type(error).__name__, "detail": str(error)}
            self.stats["failed"] += 1
            job.transition(JOB_FAILED, error=type(error).__name__)
            self._trace("fail", job)
        finally:
            self._inflight.pop(signature, None)
            self._remember(signature, job)

    async def _admit_and_dispatch(self, job: Job) -> None:
        request = job.request
        if self.config.admission and request.kind != "diagnose":
            setup, tau_in, _key = self._instance(request)
            diagnosis = await asyncio.to_thread(
                self._admit, request, setup, tau_in
            )
            if diagnosis.refuted:
                job.result = {
                    "feasible": False,
                    "verdict": "REF",
                    "tau_in": tau_in,
                    "diagnosis": diagnosis.to_dict(),
                }
                self.stats["rejected"] += 1
                job.transition(
                    JOB_REJECTED,
                    verdict="REF",
                    certificates=len(diagnosis.instance_refutations),
                )
                self._trace("reject", job)
                return
            job.transition(JOB_ADMITTED)
        else:
            job.transition(JOB_ADMITTED, admission="skipped")
        self._trace("admit", job)

        assert self.cache_dir is not None
        payload = {
            "request": request.canonical(),
            "cache_dir": str(self.cache_dir),
        }
        self.stats["dispatched"] += 1
        job.transition(JOB_RUNNING)
        self._trace("dispatch", job)
        if self.pool is not None:
            future = self.pool.submit(self._execute, payload)
            result = await asyncio.wrap_future(future)
        else:
            result = await asyncio.to_thread(self._execute, payload)
        self.worker_cache.update(result.pop("cache_stats", None))
        for stage in result.get("profile", {}).get("stages", ()):
            job.add_event("stage", **stage)
        job.result = result
        self.stats["completed"] += 1
        job.transition(JOB_DONE, verdict=result.get("verdict"))
        self._trace("complete", job)

    def _admit(
        self, request: JobRequest, setup: Any, tau_in: float
    ) -> "Diagnosis":
        """Admission fast path (thread-side): statically diagnose.

        Serialized by a lock — diagnoses are millisecond-cheap, and the
        front cache's counters stay exact without per-field atomics.
        Results land in the shared cache's *diagnosis* key space (never
        as negative schedule entries, which would poison compile
        lookups under different configs).
        """
        from repro.diagnose.instance import diagnose_instance

        with self._admit_lock:
            return diagnose_instance(
                setup.timing,
                setup.topology,
                setup.allocation,
                tau_in,
                sync_margin=request.compiler_config().sync_margin,
                cache=self.cache,
            )

    def _remember(self, signature: str, job: Job) -> None:
        """Memo a terminal outcome for the duplicate fast path.

        Each entry records the cache key backing the outcome
        (``backing``), so :meth:`_memo_valid` can later check that the
        shared cache still holds that entry before answering from the
        memo — invalidating the cache invalidates the memo with it —
        and the job's ``key``, so a duplicate answered from the memo
        builds no instance.  The flight's own instance is dropped here
        (kept, it was the daemon's one unbounded structure).
        """
        if job.terminal:
            self._results[signature] = {
                "state": job.state,
                "result": job.result,
                "error": job.error,
                "key": job.key,
                "backing": self._backing_key(job),
            }
            while len(self._results) > self.config.history_limit:
                self._results.popitem(last=False)
        self._instances.pop(job.request, None)

    def _backing_key(self, job: Job) -> str | None:
        """The shared-cache key whose entry vouches for this outcome.

        Completed compile/check jobs are backed by the schedule entry
        under ``job.key``; completed diagnose jobs and admission
        rejections are backed by the diagnosis entry in the disjoint
        diagnosis key space.  Exception failures have no backing entry
        (``None``) — they are memoized on their own terms, as are
        outcomes whose entry never landed in the cache (a worker stub
        or a cache-less execution path cannot go stale).
        """
        request = job.request
        key: str | None = None
        if job.state == JOB_DONE and request.kind in ("compile", "check"):
            key = job.key
        elif job.state == JOB_REJECTED or (
            job.state == JOB_DONE and request.kind == "diagnose"
        ):
            setup, tau_in, _key = self._instance(request)
            key = diagnosis_cache_key(
                setup.timing,
                setup.topology,
                setup.allocation,
                tau_in,
                request.compiler_config().sync_margin,
            )
        if key is None or self.cache is None or not self.cache.contains(key):
            return None
        return key

    def _memo_valid(self, done: Mapping[str, Any]) -> bool:
        """Whether a memo entry's backing cache entry still exists."""
        backing = done.get("backing")
        if backing is None:
            return True
        return self.cache is not None and self.cache.contains(backing)

    # -- observability ---------------------------------------------------

    def stats_snapshot(self) -> dict[str, Any]:
        """The ``/v1/stats`` payload."""
        payload: dict[str, Any] = {
            "uptime_s": round(time.time() - self._started, 3),
            "workers": self.config.workers,
            "draining": self.draining,
            "queue_depth": len(self._inflight),
            "jobs_tracked": len(self.store),
            "service": {name: self.stats[name] for name in SERVICE_COUNTERS},
            "cache": self._farm_cache_stats().as_dict(),
        }
        if self.cache_dir is not None:
            payload["cache_dir"] = str(self.cache_dir)
        return payload

    def _trace(self, name: str, job: Job, **args: Any) -> None:
        if not self.tracer.enabled:
            return
        self.tracer.instant(
            "serve",
            name,
            time.time() - self._started,
            track=f"serve:{job.request.kind}",
            job=job.id,
            key=job.key[:12],
            queue_depth=len(self._inflight),
            **args,
        )
