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
    stats = CacheStats()
    stats.count("schedule", "hits", 3)
    stats.count("schedule", "misses", 2)
    stats.count("idle-stage", "stores")
    before = stats.snapshot()
    stats.count("schedule", "hits", 4)
    stats.count("schedule", "stores")
    delta = stats.since(before)
    assert delta == {"schedule": {
        "hits": 4, "misses": 0, "stores": 1, "invalidations": 0}}

    totals = CacheStats()
    totals.merge(delta)
    totals.merge(delta)
    assert totals.hits == 8 and totals.stores == 2
    totals.merge(stats)
    assert totals.hits == 8 + 7


def test_persist_cache_stats_writes_atomic_json(tmp_path):
    stats = CacheStats()
    stats.merge({"schedule": {"hits": 9, "misses": 1, "stores": 1}})
    path = persist_cache_stats(tmp_path / "cache", stats)
    assert path.name == "cache-stats.json"
    assert json.loads(path.read_text()) == stats.as_dict() == {
        "hits": 9, "misses": 1, "stores": 1, "invalidations": 0,
        "hit_rate": 0.9,
    }
