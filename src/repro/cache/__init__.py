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
recompiling cold.  Artifact traffic is counted per stage under
``cache.stats.stages`` (surfaced as ``"stages"`` in ``as_dict()``),
never in the scalar counters above.

See ``docs/compiler.md`` for the key scheme and invalidation rules.
"""

from repro.cache.artifacts import (
    DeltaState,
    artifact_key,
    bounds_content,
    pools_content,
    warm_scope_key,
)
from repro.cache.keys import (
    CACHE_VERSION,
    cache_key_payload,
    canonical_allocation,
    canonical_config,
    canonical_tfg,
    canonical_timing,
    canonical_topology,
    diagnosis_cache_key,
    hashed_fields,
    schedule_cache_key,
)
from repro.cache.store import (
    CacheStats,
    ScheduleCache,
    entry_to_error,
    entry_to_routing,
    error_to_entry,
    persist_cache_stats,
    routing_to_entry,
)

__all__ = [
    "CACHE_VERSION",
    "CacheStats",
    "DeltaState",
    "ScheduleCache",
    "artifact_key",
    "bounds_content",
    "cache_key_payload",
    "canonical_allocation",
    "canonical_config",
    "canonical_tfg",
    "canonical_timing",
    "canonical_topology",
    "diagnosis_cache_key",
    "entry_to_error",
    "entry_to_routing",
    "error_to_entry",
    "hashed_fields",
    "persist_cache_stats",
    "pools_content",
    "routing_to_entry",
    "schedule_cache_key",
    "warm_scope_key",
]
