"""Multi-process stress: the shared disk cache under concurrent access.

Satellite guarantees pinned here:

- **No torn reads** — readers racing writers on the same keys see a
  complete entry or a miss, never a half-written JSON document (the
  writers' tempfile + ``os.replace`` rename is what makes this hold for
  entry files, one ``O_APPEND`` write per record for the artifact pack).
- **No duplicate solves beyond single-flight** — a burst of identical
  requests against a live farm dispatches exactly one compilation.
- **Stats sum correctly** — per-process counter deltas merged by the
  parent equal the ground truth visible on disk.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from threading import Thread

import pytest

from repro.cache import CACHE_VERSION, CacheStats, ScheduleCache
from repro.errors import SchedulingError, UtilizationExceededError
from repro.experiments.matrix import run_feasibility_matrix
from repro.serve import ServeClient, ServeConfig, ServerThread
from repro.tfg import dvb_tfg
from repro.topology import make_topology

KEYS = [f"{i:02x}" + "0" * 62 for i in range(16)]  # spread over 16 shards


def _hammer_writes(args):
    """Repeatedly (re)write failure entries for every key."""
    cache_dir, rounds = args
    cache = ScheduleCache(cache_dir)
    for round_no in range(rounds):
        for key in KEYS:
            cache.store_failure(
                key, UtilizationExceededError(1.0 + round_no / 100.0)
            )
    return cache.stats


def _hammer_reads(args):
    """Concurrently fetch every key; classify each outcome."""
    cache_dir, rounds = args
    outcomes = {"miss": 0, "failure": 0, "torn": 0}
    for _round in range(rounds):
        # A fresh cache per round defeats the memory tier: every fetch
        # goes to disk, where the race actually lives.
        cache = ScheduleCache(cache_dir)
        for key in KEYS:
            try:
                value = cache.fetch(key)
            except SchedulingError:
                outcomes["failure"] += 1
            except Exception:  # noqa: BLE001 - the defect being hunted
                outcomes["torn"] += 1
            else:
                outcomes["miss" if value is None else "torn"] += 1
    return outcomes


def _store_disjoint(args):
    """Store a worker-private key range; return the stats delta."""
    cache_dir, worker_id, count = args
    cache = ScheduleCache(cache_dir)
    before = cache.stats.copy()
    for i in range(count):
        key = f"{worker_id:x}{i:x}".ljust(64, "f")
        cache.store_failure(key, UtilizationExceededError(2.0))
    return cache.stats - before


def _artifact(worker_id, i):
    """A key and a payload big enough to span several pages."""
    return f"{worker_id:02x}{i:04x}".ljust(64, "a"), {
        "worker": worker_id, "i": i, "fill": [worker_id] * (200 + 37 * i),
    }


def _append_artifacts(args):
    """Put a worker-private range of artifacts into the shared pack."""
    cache_dir, worker_id, count = args
    cache = ScheduleCache(cache_dir)
    for i in range(count):
        key, payload = _artifact(worker_id, i)
        cache.put(key, {"format": CACHE_VERSION, "kind": "artifact",
                        "stage": "demo", "payload": payload}, "demo")
    return cache.stats


def _probe_artifacts(args):
    """One long-lived object probing every key, round after round, until
    the writers have landed them all: a probe is a miss or the right
    payload, never a damaged record."""
    cache_dir, workers, count = args
    cache = ScheduleCache(cache_dir)
    wrong, deadline = 0, time.monotonic() + 60.0
    while time.monotonic() < deadline:
        cache.clear()  # every probe goes to the pack, not the memory tier
        seen = 0
        for worker_id in range(workers):
            for i in range(count):
                key, payload = _artifact(worker_id, i)
                got = cache.get(key, ("artifact",), lambda e: e["payload"], "demo")
                seen += got is not None
                wrong += got is not None and got != payload
        if seen == workers * count:
            break
    return wrong, cache.stats.invalidations, seen


def test_concurrent_appends_never_tear_the_pack(tmp_path):
    """N processes x M artifact puts into one directory: every line of
    the pack is one whole record, and a fresh cache gets all N x M back."""
    cache_dir, workers, count = tmp_path / "cache", 3, 40
    with ProcessPoolExecutor(max_workers=4) as pool:
        probe = pool.submit(_probe_artifacts, (cache_dir, workers, count))
        stores = list(pool.map(
            _append_artifacts,
            [(cache_dir, wid, count) for wid in range(workers)],
        ))
        assert probe.result(timeout=120) == (0, 0, workers * count)
    assert sum(s["demo.stores"] for s in stores) == workers * count
    assert [p.name for p in cache_dir.iterdir()] == ["artifacts.pack"]
    lines = (cache_dir / "artifacts.pack").read_bytes().split(b"\n")
    assert lines.pop() == b"" and len(lines) == workers * count
    expected = dict(
        _artifact(wid, i) for wid in range(workers) for i in range(count)
    )
    for line in lines:  # neither torn nor interleaved
        key, _, body = line.partition(b"\t")
        assert json.loads(body)["payload"] == expected.pop(key.decode())
    fresh = ScheduleCache(cache_dir)
    for wid in range(workers):
        for i in range(count):
            key, payload = _artifact(wid, i)
            assert fresh.get(
                key, ("artifact",), lambda e: e["payload"], "demo"
            ) == payload
    assert fresh.stats.as_dict()["stages"]["demo"]["hits"] == workers * count
    assert fresh.stats.invalidations == 0


def test_concurrent_readers_never_see_torn_entries(tmp_path):
    cache_dir = tmp_path / "cache"
    ScheduleCache(cache_dir)  # create the directory
    with ProcessPoolExecutor(max_workers=4) as pool:
        writes = [
            pool.submit(_hammer_writes, (cache_dir, 30)) for _ in range(2)
        ]
        reads = [
            pool.submit(_hammer_reads, (cache_dir, 30)) for _ in range(2)
        ]
        write_stats = [f.result() for f in writes]
        read_stats = [f.result() for f in reads]
    total_reads = {"miss": 0, "failure": 0, "torn": 0}
    for outcome in read_stats:
        for kind, n in outcome.items():
            total_reads[kind] += n
    assert total_reads["torn"] == 0
    assert total_reads["failure"] > 0  # readers did overlap live entries
    assert sum(
        s.stores for s in write_stats
    ) == 2 * 30 * len(KEYS)
    # Every key settled to a complete, parseable entry.
    final = ScheduleCache(cache_dir)
    for key in KEYS:
        try:
            final.fetch(key)
            raise AssertionError("expected a cached failure entry")
        except SchedulingError:
            pass


def test_merged_deltas_match_disk_ground_truth(tmp_path):
    cache_dir = tmp_path / "cache"
    per_worker = 8
    with ProcessPoolExecutor(max_workers=4) as pool:
        deltas = list(
            pool.map(
                _store_disjoint,
                [(cache_dir, wid, per_worker) for wid in range(4)],
            )
        )
    totals = CacheStats()
    for delta in deltas:
        totals.update(delta)
    assert totals.stores == 4 * per_worker
    on_disk = list(cache_dir.glob("*/*.json"))
    assert len(on_disk) == 4 * per_worker
    for path in on_disk:  # all complete documents
        entry = json.loads(path.read_text())
        assert entry["kind"] == "failure"


def test_matrix_workers_open_one_cache_each(tmp_path, monkeypatch):
    """``matrix --jobs 2``: one :class:`ScheduleCache` per worker process,
    not one per cell, and the merged per-cell deltas equal the serial
    run's totals and the ground truth visible on disk."""
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the counting __init__ reaches workers by fork only")
    log = tmp_path / "constructed.log"
    real_init = ScheduleCache.__init__

    def counting_init(self, directory=None):
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        real_init(self, directory)

    monkeypatch.setattr(ScheduleCache, "__init__", counting_init)
    grid = (dvb_tfg(3), [make_topology("hypercube6")], [128.0],
            [0.2, 0.4, 0.6, 0.8, 1.0])
    parallel = run_feasibility_matrix(*grid, jobs=2, cache=tmp_path / "par")
    workers = log.read_text().split()
    assert 1 <= len(workers) <= 2 and len(set(workers)) == len(workers)
    assert str(os.getpid()) not in workers
    serial = run_feasibility_matrix(*grid, jobs=1, cache=tmp_path / "ser")
    assert parallel.rows == serial.rows
    assert parallel.cache_stats == serial.cache_stats
    assert parallel.cache_stats["stores"] == 5 == len(
        list((tmp_path / "par").glob("*/*.json"))
    )
    assert json.loads(
        (tmp_path / "par" / "cache-stats.json").read_text()
    ) == parallel.cache_stats


def test_request_burst_dispatches_single_compile(tmp_path):
    """8 clients, 1 instance, 2 worker processes -> exactly 1 LP solve."""
    payload = {
        "kind": "compile",
        "topology": "hypercube6",
        "bandwidth": 128,
        "models": 3,
        "load": 0.2,
    }
    config = ServeConfig(workers=2, cache_dir=tmp_path / "cache")
    results: list[dict] = []

    def one_client(port: int) -> None:
        with ServeClient("127.0.0.1", port, timeout=180) as client:
            status, body = client.submit(payload, wait=True)
            assert status == 200
            results.append(body)

    with ServerThread(config) as server:
        threads = [
            Thread(target=one_client, args=(server.port,)) for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=180)
        with ServeClient("127.0.0.1", server.port) as client:
            stats = client.stats()

    assert len(results) == 8
    assert all(body["state"] == "done" for body in results)
    service = stats["service"]
    assert service["submitted"] == 8
    assert service["dispatched"] == 1  # single-flight held under the burst
    assert service["coalesced"] + service["fast_hits"] == 7
    # All eight callers got the same compiled answer.
    utilizations = {body["result"]["utilization"] for body in results}
    assert len(utilizations) == 1
