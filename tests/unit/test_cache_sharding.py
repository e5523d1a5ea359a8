"""Shard layout and multi-process cache stats."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cache import (
    CACHE_VERSION,
    CacheStats,
    ScheduleCache,
    persist_cache_stats,
)
from repro.errors import SchedulingError, UtilizationExceededError


def _key(tag: str) -> str:
    return hashlib.sha256(tag.encode()).hexdigest()


def _failure_entry(message: str) -> dict:
    return {
        "format": CACHE_VERSION,
        "kind": "failure",
        "type": "UtilizationExceededError",
        "stage": "utilization",
        "message": message,
        "args": {"peak": 1.5, "witness": "link (0, 1)"},
    }


def test_disk_entries_are_sharded_by_key_prefix(tmp_path):
    # A top-level ``<dir>/<key>.json`` (the pre-shard layout, whose keys
    # no current config can produce) is not an entry: ignored, not read.
    stale_key = _key("legacy")
    stale = tmp_path / f"{stale_key}.json"
    stale.write_text(json.dumps(_failure_entry("legacy")))

    cache = ScheduleCache(tmp_path)
    key = _key("point-a")
    cache.store_failure(key, UtilizationExceededError(1.5))
    assert (tmp_path / key[:2] / f"{key}.json").is_file()
    assert not (tmp_path / f"{key}.json").exists()
    with pytest.raises(SchedulingError):
        ScheduleCache(tmp_path).fetch(key)

    assert cache.fetch(stale_key) is None and not cache.contains(stale_key)
    assert stale.is_file() and not (tmp_path / stale_key[:2]).exists()


def test_stats_snapshot_since_merge():
    """A snapshot is ``copy()``, a delta ``stats - before`` (moved
    counters only), a merge ``update(delta)``."""
    stats = CacheStats({"schedule.hits": 3, "schedule.misses": 2})
    stats["idle-stage.stores"] += 1
    before = stats.copy()
    stats["schedule.hits"] += 4
    stats["schedule.stores"] += 1
    delta = stats - before
    assert delta == {"schedule.hits": 4, "schedule.stores": 1}

    totals = CacheStats()
    totals.update(delta)
    totals.update(delta)
    assert totals.hits == 8 and totals.stores == 2
    totals.update(stats)
    assert totals.hits == 8 + 7


def test_stage_seen_only_through_an_invalidation_renders_zeros():
    stats = CacheStats()
    stats["assign-paths.invalidations"] += 1
    assert stats.as_dict() == {
        "hits": 0, "misses": 0, "stores": 0, "invalidations": 1,
        "hit_rate": 0.0,
        "stages": {"assign-paths": {"hits": 0, "misses": 0, "stores": 0}},
    }


def test_worker_delta_survives_a_json_round_trip(tmp_path):
    """What a farm worker ships back (JSON-able end to end) merges to
    the same ``as_dict()`` as the live delta."""
    cache = ScheduleCache(tmp_path)
    cache.get(_key("a"), ("schedule",), dict)  # schedule miss
    before = cache.stats.copy()
    cache.put(_key("b"), {"format": CACHE_VERSION, "kind": "artifact",
                          "stage": "demo"}, "demo")
    cache.get(_key("b"), ("artifact",), dict, "demo")
    cache.get(_key("c"), ("artifact",), dict, "demo")
    cache.store_failure(_key("d"), UtilizationExceededError(1.5))
    delta = cache.stats - before
    shipped = json.loads(json.dumps(delta))
    live, wired = CacheStats(), CacheStats()
    live.update(delta)
    wired.update(shipped)
    assert wired.as_dict() == live.as_dict() == {
        "hits": 0, "misses": 0, "stores": 1, "invalidations": 0,
        "hit_rate": 0.0,
        "stages": {"demo": {"hits": 1, "misses": 1, "stores": 1}},
    }


def test_persist_cache_stats_writes_atomic_json(tmp_path):
    stats = CacheStats(
        {"schedule.hits": 9, "schedule.misses": 1, "schedule.stores": 1}
    )
    path = persist_cache_stats(tmp_path / "cache", stats)
    assert path.name == "cache-stats.json"
    assert json.loads(path.read_text()) == stats.as_dict() == {
        "hits": 9, "misses": 1, "stores": 1, "invalidations": 0,
        "hit_rate": 0.9,
    }
