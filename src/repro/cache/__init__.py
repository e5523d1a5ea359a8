"""Content-addressed schedule caching.

Compiling a schedule is LP-heavy; its inputs (TFG + timing + topology +
allocation + period + config) are pure values.  This package hashes
those values into a stable key (:mod:`repro.cache.keys`) and stores the
compiled :class:`~repro.core.switching.CommunicationSchedule` — or the
:class:`~repro.errors.SchedulingError` the compilation raised — under it
(:mod:`repro.cache.store`), so the feasibility matrix, the fault-repair
engine and repeated CLI runs reuse prior work:

>>> from repro.cache import ScheduleCache
>>> cache = ScheduleCache("~/.cache/repro-schedules")   # or ScheduleCache()
>>> routing = compile_schedule(timing, topo, alloc, tau, config, cache=cache)
>>> cache.stats.as_dict()["misses"], cache.stats.as_dict()["stores"]
(1, 1)

Beyond the monolithic schedule key, the cache also holds per-stage
**artifacts** (:mod:`repro.cache.artifacts`): content-keyed outputs of
the expensive pipeline stages, so a near-identical instance — one
message resized, one link dropped — resumes mid-pipeline instead of
recompiling cold.  Artifact traffic is counted per stage (``"stages"``
in ``cache.stats.as_dict()``), never in the schedule-level counters
above.  Every kind of entry goes through ``cache.get(key, kinds, decode,
scope)`` / ``cache.put(key, entry, scope)``; one its decoder rejects is
dropped and recomputed.

See ``docs/compiler.md`` for the key scheme and invalidation rules.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "CACHE_VERSION": "keys",
    "CacheStats": "store",
    "DeltaState": "artifacts",
    "ScheduleCache": "store",
    "artifact_key": "artifacts",
    "bounds_content": "artifacts",
    "canonical_allocation": "keys",
    "canonical_config": "keys",
    "canonical_tfg": "keys",
    "canonical_timing": "keys",
    "canonical_topology": "keys",
    "diagnosis_cache_key": "keys",
    "entry_to_error": "store",
    "entry_to_routing": "store",
    "error_to_entry": "store",
    "persist_cache_stats": "store",
    "pools_content": "artifacts",
    "routing_to_entry": "store",
    "schedule_cache_key": "keys",
})
