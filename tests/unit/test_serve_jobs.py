"""Job model: payload validation, canonical round-trip, lifecycle, store."""

from __future__ import annotations

import asyncio

import pytest

from repro.serve.jobs import (
    JOB_DONE,
    JOB_QUEUED,
    JOB_RUNNING,
    BadRequest,
    Job,
    JobRequest,
    JobStore,
)

GOOD = {
    "kind": "compile",
    "topology": "hypercube6",
    "bandwidth": 128,
    "models": 4,
    "load": 0.25,
}


def test_from_payload_defaults_and_coercion():
    request = JobRequest.from_payload(GOOD)
    assert request.kind == "compile"
    assert request.topology == "hypercube6"
    assert request.bandwidth == 128.0
    assert request.allocator == "sequential"
    assert request.seed == 0
    assert request.config == ()


def test_from_payload_resolves_topology_alias():
    request = JobRequest.from_payload({**GOOD, "topology": "cube6"})
    assert request.topology == "hypercube6"


@pytest.mark.parametrize(
    "patch",
    [
        {"kind": "optimize"},
        {"topology": "torus9000"},
        {"bandwidth": 0},
        {"bandwidth": -4},
        {"models": 0},
        {"load": 0.0},
        {"load": 1.5},
        {"load": "fast"},
        {"allocator": "greedy"},
        {"config": ["not", "a", "mapping"]},
        {"config": {"mystery_knob": 1}},
        {"config": {"max_paths": "lots"}},
        # Strict wire typing: no bool("false"), int(5.9) or int(True).
        {"models": 5.9},
        {"seed": True},
        {"config": {"use_assign_paths": "false"}},
        {"config": {"prescreen": True}},
        {"config": {"max_paths": 3.7}},
        {"config": {"lp_backend": "nonsense"}},
        {"config": {"lp_backend": "ilp"}},
        # Well-typed knobs no compile can run.
        {"config": {"retries": -1}},
        {"config": {"max_restarts": -5}},
        {"config": {"feedback_rounds": -1}},
        {"config": {"max_paths": 0}},
        {"config": {"sync_margin": -1.0}},
        {"config": {"sync_margin": float("nan")}},
        {"config": {"sync_margin": float("inf")}},
    ],
)
def test_from_payload_rejects_bad_fields(patch):
    with pytest.raises(BadRequest):
        JobRequest.from_payload({**GOOD, **patch})


def test_from_payload_rejects_non_mapping():
    with pytest.raises(BadRequest):
        JobRequest.from_payload([1, 2, 3])


def test_from_payload_requires_load():
    payload = dict(GOOD)
    del payload["load"]
    with pytest.raises(BadRequest):
        JobRequest.from_payload(payload)


def test_config_overrides_sorted_and_applied():
    request = JobRequest.from_payload(
        {**GOOD, "seed": 7,
         "config": {"max_paths": 3, "lp_backend": "reference"}}
    )
    # Pairs are key-sorted so the signature is order-independent.
    assert request.config == (("lp_backend", "reference"), ("max_paths", 3))
    config = request.compiler_config()
    assert config.seed == 7
    assert config.max_paths == 3
    assert config.lp_backend == "reference"


def test_canonical_round_trip_preserves_identity():
    request = JobRequest.from_payload(
        {**GOOD, "kind": "check", "seed": 3, "config": {"retries": 2}}
    )
    back = JobRequest.from_canonical(request.canonical())
    assert back == request
    assert back.instance_signature() == request.instance_signature()


def test_signature_distinguishes_kind_and_config():
    base = JobRequest.from_payload(GOOD)
    assert (
        JobRequest.from_payload({**GOOD, "kind": "check"}).instance_signature()
        != base.instance_signature()
    )
    assert (
        JobRequest.from_payload(
            {**GOOD, "config": {"max_paths": 2}}
        ).instance_signature()
        != base.instance_signature()
    )
    # Same payload -> same signature (dedup key).
    assert JobRequest.from_payload(GOOD).instance_signature() == (
        base.instance_signature()
    )


def test_instance_signature_is_pinned():
    """The dedup/memo key space must not move between commits."""
    request = JobRequest.from_payload({
        "topology": "cube6", "bandwidth": 128, "models": 5, "load": 0.5,
        "config": {"lp_backend": "reference", "max_paths": 12},
    })
    assert request.instance_signature() == (
        '{"allocator": "sequential", "bandwidth": 128.0, "config": '
        '[["lp_backend", "reference"], ["max_paths", 12]], "kind": '
        '"compile", "load": 0.5, "models": 5, "seed": 0, "topology": '
        '"hypercube6"}'
    )


def _job(
    store: JobStore, state: str = JOB_QUEUED, job_type: type[Job] = Job
) -> Job:
    job = job_type(
        id=store.new_id(), request=JobRequest.from_payload(GOOD), key="k"
    )
    store.add(job)
    if state != JOB_QUEUED:
        job.transition(state)
    return job


def test_job_lifecycle_events_and_wait():
    async def run():
        job = Job(
            id="job-1", request=JobRequest.from_payload(GOOD), key="abc"
        )
        assert not job.terminal
        job.add_event("enqueue", queue_depth=0)
        job.transition(JOB_RUNNING)
        assert not await job.wait(timeout=0.01)  # not terminal yet
        job.result = {"feasible": True}
        job.transition(JOB_DONE, verdict="OK")
        assert await job.wait(timeout=1.0)
        assert job.terminal and job.finished_at is not None
        names = [e["event"] for e in job.events]
        assert names == ["enqueue", "running", "done"]
        assert [e["seq"] for e in job.events] == [0, 1, 2]
        snap = job.snapshot()
        assert snap["state"] == JOB_DONE
        assert snap["result"] == {"feasible": True}
        assert snap["elapsed_ms"] >= 0

    asyncio.run(run())


def test_store_evicts_only_terminal_jobs():
    async def run():
        store = JobStore(history_limit=3)
        live = _job(store)  # stays queued
        done = [_job(store, JOB_DONE) for _ in range(4)]
        # 5 jobs, limit 3: the two oldest *terminal* jobs aged out.
        assert len(store) == 3
        assert store.get(live.id) is live
        assert store.get(done[0].id) is None
        assert store.get(done[1].id) is None
        assert store.get(done[-1].id) is done[-1]
        assert store.active() == [live]

    asyncio.run(run())


def test_full_store_evicts_in_bounded_work():
    class CountingJob(Job):
        reads = 0

        @property
        def terminal(self) -> bool:
            CountingJob.reads += 1
            return super().terminal

    async def run():
        limit = 64
        store = JobStore(history_limit=limit)
        live = _job(store, job_type=CountingJob)  # oldest, never terminal
        done = [
            _job(store, JOB_DONE, CountingJob) for _ in range(3 * limit - 1)
        ]
        assert len(store) == limit
        assert store.get(live.id) is live
        survivors = done[-(limit - 1):]
        assert all(store.get(job.id) is job for job in survivors)
        assert store.get(done[-limit].id) is None
        # One more submit to the full store looks at the live job in
        # front and the one terminal job it drops, not at all ``limit``.
        CountingJob.reads = 0
        _job(store, job_type=CountingJob)
        assert CountingJob.reads <= 4
        assert len(store) == limit and store.get(live.id) is live

    asyncio.run(run())
