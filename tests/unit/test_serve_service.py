"""CompileService semantics: single-flight, fast path, admission, firewall.

Each test boots a real service (inline ``workers=0`` mode) inside a
private event loop; the worker callable is monkeypatched through the
``service._execute`` indirection where the real compiler would only
add noise.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import sys
import threading
import time

import pytest

from repro.cache.store import ScheduleCache
from repro.core.compiler import compile_schedule
from repro.core.io import schedule_to_dict
from repro.experiments.setup import ALLOCATORS, standard_setup
from repro.serve.jobs import (
    JOB_DONE,
    JOB_FAILED,
    JOB_REJECTED,
    BadRequest,
    JobRequest,
)
from repro.serve.http import _handle_post_jobs, _HttpError
from repro.serve.service import CompileService, ServeConfig
from repro.serve.worker import execute_request
from repro.tfg.dvb import dvb_tfg
from repro.topology.registry import STANDARD_TOPOLOGIES, make_topology
from repro.trace.tracer import TraceRecorder
from tests.conftest import pins

PAYLOAD = {
    "kind": "compile",
    "topology": "hypercube6",
    "bandwidth": 128,
    "models": 4,
    "load": 0.25,
}

#: A hopeless instance the static diagnoser refutes (cut overload).
REFUTED = {
    "kind": "compile",
    "topology": "hypercube6",
    "bandwidth": 64,
    "models": 16,
    "load": 1.0,
}


def _served(payload, cache_dir=None) -> dict:
    """One worker task, run in this process."""
    request = JobRequest.from_payload(payload)
    return execute_request(
        {"request": request.canonical(), "cache_dir": cache_dir}
    )


def _service(tmp_path=None, **overrides) -> CompileService:
    config = ServeConfig(
        workers=0,
        cache_dir=None if tmp_path is None else tmp_path / "cache",
        **overrides,
    )
    return CompileService(config)


def _run(coro):
    return asyncio.run(coro)


def test_submit_executes_and_completes():
    async def run():
        service = _service()
        service.start()
        try:
            calls = []

            def fake(task):
                calls.append(task)
                return {"feasible": True, "verdict": "OK"}

            service._execute = fake
            job = service.submit(PAYLOAD)
            assert await job.wait(timeout=10)
            assert job.state == JOB_DONE
            assert job.result == {"feasible": True, "verdict": "OK"}
            assert len(calls) == 1
            task = calls[0]
            assert set(task) == {"request", "cache_dir"}
            assert task["request"]["models"] == 4
            assert task["cache_dir"] == str(service.cache_dir)
            assert service.stats["dispatched"] == 1
            assert service.stats["completed"] == 1
        finally:
            await service.shutdown()

    _run(run())


def test_malformed_payload_raises_bad_request():
    async def run():
        service = _service()
        service.start()
        try:
            with pytest.raises(BadRequest):
                service.submit({"kind": "compile"})  # missing everything
        finally:
            await service.shutdown()

    _run(run())


def test_stats_render_every_counter_after_one_malformed_request():
    """``/v1/stats["service"]`` is the fixed counter list, zero-filled:
    a counter nothing has touched yet still reads 0."""
    async def run():
        service = _service()
        service.start()
        try:
            with pytest.raises(_HttpError):
                await _handle_post_jobs(service, "", b"{not json", True, None)
            counters = service.stats_snapshot()["service"]
        finally:
            await service.shutdown()
        assert list(counters.items()) == [
            ("submitted", 0), ("malformed", 1), ("coalesced", 0),
            ("fast_hits", 0), ("rejected", 0), ("dispatched", 0),
            ("completed", 0), ("failed", 0),
        ]

    _run(run())


@pytest.mark.parametrize(
    ("admission", "state", "verdict"),
    [(True, JOB_REJECTED, "REF"), (False, JOB_DONE, "ERR")],
)
def test_nan_sync_margin_gets_a_verdict_not_a_crash(admission, state, verdict):
    """``{"sync_margin": NaN}`` is valid JSON to Python.  It once reached a
    job, which ended ``state`` with verdict ``verdict`` (and before that
    failed on an ``AssertionError`` deep in path assignment).  It is an
    input error, so its verdict is now a 400 at the door, with or without
    admission: no job is made, so no job can end ``state``."""
    async def run():
        service = _service(admission=admission)
        service.start()
        try:
            body = json.dumps(
                {**PAYLOAD, "config": {"sync_margin": float("nan")}}
            ).encode()
            with pytest.raises(_HttpError) as refused:
                await _handle_post_jobs(service, "", body, True, None)
            counters = service.stats_snapshot()["service"]
            jobs = len(service.store)
        finally:
            await service.shutdown()
        assert refused.value.status == 400
        assert "sync margin must be a non-negative finite time, got nan" in (
            refused.value.detail
        )
        assert verdict not in refused.value.detail
        assert jobs == 0
        assert counters["malformed"] == 1
        assert counters["submitted"] == 0
        assert counters["rejected"] == counters["completed"] == 0

    _run(run())


def test_single_flight_coalesces_concurrent_duplicates():
    async def run():
        service = _service()
        service.start()
        try:
            release = asyncio.Event()

            def slow(task):
                # Block the worker thread until the test releases it.
                while not release.is_set():
                    time.sleep(0.005)
                return {"feasible": True, "verdict": "OK"}

            service._execute = slow
            first = service.submit(PAYLOAD)
            await asyncio.sleep(0.05)  # let it dispatch
            second = service.submit(PAYLOAD)
            third = service.submit(PAYLOAD)
            assert second is first and third is first
            assert first.coalesced == 2
            release.set()
            assert await first.wait(timeout=10)
            assert service.stats["dispatched"] == 1  # one solve, three callers
            assert service.stats["coalesced"] == 2
        finally:
            await service.shutdown()

    _run(run())


def test_finished_duplicates_hit_result_memo():
    async def run():
        service = _service()
        service.start()
        try:
            service._execute = lambda task: {"feasible": True, "verdict": "OK"}
            first = service.submit(PAYLOAD)
            assert await first.wait(timeout=10)
            second = service.submit(PAYLOAD)
            # New job object, same answer, no second dispatch.
            assert second is not first
            assert second.terminal
            assert second.result == first.result
            assert second.events[-1].get("fast_path") is True
            assert service.stats["fast_hits"] == 1
            assert service.stats["dispatched"] == 1
        finally:
            await service.shutdown()

    _run(run())


def test_built_instances_live_only_while_their_job_is_in_flight():
    """Regression: ``_instances`` kept one built setup (TFG + 64-node
    topology + timing) per never-seen request forever, the one structure
    ``history_limit`` did not bound."""
    async def run():
        service = _service(history_limit=4)
        service.start()
        try:
            service._execute = lambda task: {"feasible": True, "verdict": "OK"}
            payloads = [
                dict(PAYLOAD, load=load)
                for load in (0.2, 0.21, 0.22, 0.23, 0.24, 0.25)
            ]
            jobs = [service.submit(payload) for payload in payloads]
            assert len(service._instances) == 6  # all in flight
            for job in jobs:
                assert await job.wait(timeout=10)
            assert len(service._instances) == 0
            # A finished duplicate is answered, key and all, from the
            # memo: it builds nothing.  The memo keeps the jobs that
            # finished last, and threads finish in any order, so the
            # duplicate repeats the job the memo recorded last.
            newest = next(reversed(service._results.values()))["key"]
            (last,) = [i for i, job in enumerate(jobs) if job.key == newest]
            duplicate = service.submit(payloads[last])
            assert duplicate.terminal and duplicate.key == jobs[last].key
            assert service.stats["fast_hits"] == 1
            assert len(service._instances) == 0
        finally:
            await service.shutdown()

    _run(run())


def test_memo_invalidated_when_backing_cache_entry_vanishes():
    """Regression: the result memo once outlived cache invalidation.

    A finished job's memo entry is keyed to the cache entry that backs
    it; once that entry disappears (cache cleared, pruned, or replaced),
    a duplicate request must recompile instead of replaying the orphaned
    memo.
    """
    async def run():
        service = _service()
        service.start()
        try:
            from repro.serve.jobs import JobRequest

            key = service._instance(JobRequest.from_payload(PAYLOAD))[2]

            def execute(task):
                # Simulate the worker landing the schedule entry in the
                # shared cache (existence is what backs the memo).
                service.cache.put(key, {"kind": "stub"})
                return {"feasible": True, "verdict": "OK"}

            service._execute = execute
            first = service.submit(PAYLOAD)
            assert await first.wait(timeout=10)

            # Backing entry present: the memo fast path serves.
            second = service.submit(PAYLOAD)
            assert second.terminal
            assert service.stats["fast_hits"] == 1
            assert service.stats["dispatched"] == 1

            # Drop the backing entry from both tiers.
            for path in service.cache_dir.rglob("*.json"):
                if path.stem == key:
                    path.unlink()
            service.cache.clear()

            # Stale memo must be discarded, not replayed.
            third = service.submit(PAYLOAD)
            assert not third.terminal
            assert await third.wait(timeout=10)
            assert third.state == JOB_DONE
            assert service.stats["fast_hits"] == 1
            assert service.stats["dispatched"] == 2
        finally:
            await service.shutdown()

    _run(run())


def test_admission_rejects_refuted_instance_before_dispatch():
    async def run():
        tracer = TraceRecorder(categories={"serve"})
        service = CompileService(ServeConfig(workers=0), tracer=tracer)
        service.start()
        try:
            def boom(task):  # pragma: no cover - must never run
                raise AssertionError("refuted instance reached a worker")

            service._execute = boom
            job = service.submit(REFUTED)
            assert await job.wait(timeout=60)
            assert job.state == JOB_REJECTED
            assert job.result["verdict"] == "REF"
            assert job.result["diagnosis"]["refuted"] is True
            assert job.result["diagnosis"]["refutations"]
            assert service.stats["rejected"] == 1
            assert service.stats["dispatched"] == 0
            names = {e.name for e in tracer.events}
            assert "reject" in names and "dispatch" not in names
        finally:
            await service.shutdown()

    _run(run())


def test_admission_disabled_dispatches_everything():
    async def run():
        service = _service(admission=False)
        service.start()
        try:
            service._execute = lambda task: {"feasible": False, "verdict": "REF"}
            job = service.submit(REFUTED)
            assert await job.wait(timeout=10)
            assert job.state == JOB_DONE  # worker answered, not admission
            assert service.stats["dispatched"] == 1
            assert service.stats["rejected"] == 0
        finally:
            await service.shutdown()

    _run(run())


def test_worker_exception_is_firewalled_to_failed():
    async def run():
        service = _service()
        service.start()
        try:
            def boom(task):
                raise RuntimeError("worker exploded")

            service._execute = boom
            job = service.submit(PAYLOAD)
            assert await job.wait(timeout=10)
            assert job.state == JOB_FAILED
            assert job.error == {
                "type": "RuntimeError",
                "detail": "worker exploded",
            }
            assert service.stats["failed"] == 1
            # The flight is gone: a retry dispatches again (memo replays
            # the failure only via the documented fast path).
            second = service.submit(PAYLOAD)
            assert second.terminal and second.state == JOB_FAILED
            assert service.stats["fast_hits"] == 1
        finally:
            await service.shutdown()

    _run(run())


def test_spool_progress_events_reach_job():
    """The worker's one channel back is its result: each stage of the
    profile it carries becomes one ``stage`` event, in order, between
    ``running`` and ``done``, and the result itself is stored unchanged."""
    stages = [
        {"stage": "time-bounds", "wall_ms": 1.5, "start_ms": 0.1,
         "detail": {"messages": 12}},
        {"stage": "assign-paths", "wall_ms": 7.25, "start_ms": 1.7,
         "detail": {"restarts": 2}},
    ]
    result = {"feasible": True, "verdict": "OK", "profile": {"stages": stages}}

    async def run():
        service = _service()
        service.start()
        try:
            service._execute = lambda task: json.loads(json.dumps(result))
            job = service.submit(PAYLOAD)
            assert await job.wait(timeout=10)
            assert job.result == result
            names = [e["event"] for e in job.events]
            assert names == [
                "enqueue", "admitted", "running", "stage", "stage", "done"
            ]
            assert [
                {k: e[k] for k in ("stage", "wall_ms", "start_ms", "detail")}
                for e in job.events if e["event"] == "stage"
            ] == stages
        finally:
            await service.shutdown()

    _run(run())


def test_served_profile_keeps_its_pinned_stage_rows():
    """The worker's ``profile`` is the stage rows of its ``compile``
    spans: every stage in order with its detail, as tests/data/pins.json
    holds them (only the wall-clock ``lp_wall_ms`` is left out)."""
    result = _served({**PAYLOAD, "models": 5, "load": 0.5})
    rows = json.loads(json.dumps(result["profile"]))["stages"]
    assert all(
        list(row) == ["stage", "wall_ms", "start_ms", "detail"]
        for row in rows
    )
    assert pins().produce("serve.dvb5_stages") == pins().pinned(
        "serve.dvb5_stages"
    )


def test_infeasible_compile_keeps_its_stages(tmp_path):
    """A compile that raises ``SchedulingError`` has run its stages and
    ships them; a cache hit, negative or positive, runs none."""
    cache_dir = str(tmp_path / "cache")
    result = _served(REFUTED, cache_dir)
    assert result["verdict"] == "U>1" and not result["feasible"]
    names = [row["stage"] for row in result["profile"]["stages"]]
    assert names[:2] == ["time-bounds", "assign-paths"]
    assert "profile" not in _served(REFUTED, cache_dir)
    assert "profile" in _served(PAYLOAD, cache_dir)
    assert "profile" not in _served(PAYLOAD, cache_dir)


def test_infeasible_job_gets_its_stage_events():
    async def run():
        service = _service(admission=False)
        service.start()
        try:
            job = service.submit(REFUTED)
            assert await job.wait(timeout=60)
            assert job.state == JOB_DONE and job.result["verdict"] == "U>1"
            names = [e["event"] for e in job.events]
            first = names.index("stage")
            stages = job.result["profile"]["stages"]
            assert names[first:] == ["stage"] * len(stages) + ["done"]
        finally:
            await service.shutdown()

    _run(run())


def test_worker_cache_deltas_merge_into_service_stats():
    async def run():
        service = _service()
        service.start()
        try:
            service._execute = lambda task: {
                "feasible": True,
                "verdict": "OK",
                "cache_stats": {
                    "schedule.hits": 2, "schedule.misses": 1,
                    "schedule.stores": 1},
            }
            job = service.submit(PAYLOAD)
            assert await job.wait(timeout=10)
            assert "cache_stats" not in job.result  # consumed, not leaked
            assert service.worker_cache.hits == 2
            snapshot = service.stats_snapshot()
            assert snapshot["cache"]["stores"] >= 1
            assert snapshot["service"]["completed"] == 1
        finally:
            await service.shutdown()

    _run(run())


def test_shutdown_persists_cache_stats(tmp_path):
    async def run():
        service = _service(tmp_path)
        service.start()
        try:
            service._execute = lambda task: {
                "feasible": True,
                "verdict": "OK",
                "cache_stats": {
                    "schedule.hits": 3, "schedule.misses": 1,
                    "schedule.stores": 1},
            }
            job = service.submit(PAYLOAD)
            assert await job.wait(timeout=10)
        finally:
            await service.shutdown()
        stats_file = tmp_path / "cache" / "cache-stats.json"
        assert stats_file.is_file()
        payload = json.loads(stats_file.read_text())
        assert payload["hits"] >= 3  # worker delta made it to disk
        # Persistent cache dir survives shutdown (only ephemeral ones go).
        assert (tmp_path / "cache").is_dir()

    _run(run())


def test_tilde_cache_dir_lands_under_home(tmp_path, monkeypatch):
    """``serve --cache-dir=~/farm`` reaches the service unexpanded."""
    monkeypatch.setenv("HOME", str(tmp_path))
    (tmp_path / "cwd").mkdir()
    monkeypatch.chdir(tmp_path / "cwd")

    async def run():
        service = CompileService(ServeConfig(workers=0, cache_dir="~/farm"))
        service.start()
        assert service.cache_dir == tmp_path / "farm"
        await service.shutdown()

    _run(run())
    assert (tmp_path / "farm").is_dir()
    assert list((tmp_path / "cwd").iterdir()) == []


def test_ephemeral_cache_removed_on_shutdown():
    async def run():
        service = _service()
        service.start()
        cache_dir = service.cache_dir
        assert cache_dir is not None and cache_dir.is_dir()
        await service.shutdown()
        assert not cache_dir.exists()

    _run(run())


def _omega_digest(schedule) -> str:
    return hashlib.sha256(
        json.dumps(schedule_to_dict(schedule), sort_keys=True).encode()
    ).hexdigest()


def test_concurrent_compiles_on_one_machine_match_fresh_machines(tmp_path):
    """Never-seen compiles running at once on the process's one
    ``hypercube6`` -- more threads than cores, under caps no other request
    uses, so they enumerate and replace the same pairs' tables -- give
    the Ω of serial compiles on machines of their own."""
    payloads = [
        dict(PAYLOAD, models=5, load=0.4, config={"max_paths": cap})
        for cap in (4, 5, 6)
    ]
    served: dict[int, str] = {}

    async def run():
        service = _service(tmp_path)
        service.start()
        together = threading.Barrier(len(payloads))

        def execute(task):
            together.wait(timeout=30)  # both compiles start at once
            return execute_request(task)

        try:
            service._execute = execute
            jobs = [service.submit(payload) for payload in payloads]
            for job in jobs:
                assert await job.wait(timeout=120)
                assert job.result["verdict"] == "OK"
            cache = ScheduleCache(service.cache_dir)
            machine = make_topology("hypercube6")
            for i, job in enumerate(jobs):
                routing = cache.fetch(job.key, machine)
                served[i] = _omega_digest(routing.schedule)
        finally:
            await service.shutdown()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        _run(run())
    finally:
        sys.setswitchinterval(interval)
    for i, payload in enumerate(payloads):
        request = JobRequest.from_payload(payload)
        machine = STANDARD_TOPOLOGIES[request.topology]()
        assert machine is not make_topology(request.topology)
        tfg = dvb_tfg(request.models)
        setup = standard_setup(
            tfg, machine, request.bandwidth,
            allocation=ALLOCATORS[request.allocator](
                tfg, machine, request.seed
            ),
        )
        routing = compile_schedule(
            setup.timing, machine, setup.allocation,
            setup.tau_in_for_load(request.load), request.compiler_config(),
        )
        assert served[i] == _omega_digest(routing.schedule), payload
