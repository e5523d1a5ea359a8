"""``repro.serve`` — the async compile-farm service layer.

The paper's compiler answers one instance at a time; this package turns
it into a long-running service answering *streams* of compile /
diagnose / check requests the way a production scheduling farm would:

- :mod:`~repro.serve.jobs` — request validation, job lifecycle, store;
- :mod:`~repro.serve.service` — :class:`CompileService`: single-flight
  dedup, diagnoser admission control, dispatch to a
  :class:`~repro.pool.GracefulPool` of workers over the shared sharded
  on-disk :class:`~repro.cache.ScheduleCache`;
- :mod:`~repro.serve.worker` — the process-side task executor (JSON in,
  JSON out, per-task cache-stat deltas);
- :mod:`~repro.serve.http` — stdlib-asyncio HTTP/1.1 endpoints,
  including the chunked stage-progress stream;
- :mod:`~repro.serve.runner` — the ``repro-sr serve`` daemon loop and a
  background :class:`ServerThread` for tests/benchmarks;
- :mod:`~repro.serve.client` — blocking client (``repro-sr submit``).

See ``docs/serve.md`` for the architecture walk-through.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "BadRequest": "jobs",
    "CompileService": "service",
    "Job": "jobs",
    "JobRequest": "jobs",
    "JobStore": "jobs",
    "ServeClient": "client",
    "ServeConfig": "service",
    "ServerThread": "runner",
    "serve_forever": "runner",
})
