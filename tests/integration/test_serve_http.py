"""End-to-end farm tests over real HTTP (ServerThread + ServeClient).

The daemon runs in a background thread on an ephemeral port; requests
run the *real* compiler on small DVB instances (sub-second compiles),
so these tests cover the whole stack: HTTP parsing, job lifecycle,
admission control, the result memo, and event streaming.
"""

from __future__ import annotations

import json
import logging
import socket

import pytest

from repro.serve import ServeClient, ServeConfig, ServerThread

FAST = {
    "kind": "compile",
    "topology": "hypercube6",
    "bandwidth": 128,
    "models": 3,
    "load": 0.25,
}

REFUTED = {
    "kind": "compile",
    "topology": "hypercube6",
    "bandwidth": 64,
    "models": 16,
    "load": 1.0,
}


@pytest.fixture(scope="module")
def server():
    with ServerThread(ServeConfig(workers=0)) as thread:
        yield thread


@pytest.fixture()
def client(server):
    with ServeClient("127.0.0.1", server.port, timeout=120) as c:
        yield c


def test_healthz(client):
    body = client.healthz()
    assert body["ok"] is True
    assert body["draining"] is False


def test_submit_wait_compiles_and_memoizes(client):
    status, body = client.submit(FAST, wait=True)
    assert status == 200
    assert body["state"] == "done"
    assert body["result"]["feasible"] is True
    assert body["result"]["verdict"] == "OK"
    assert body["result"]["utilization"] > 0

    # Same instance again: fast path, new job id, same answer.
    status2, body2 = client.submit(FAST, wait=True)
    assert status2 == 200
    assert body2["id"] != body["id"]
    assert body2["state"] == "done"
    assert body2["result"]["utilization"] == body["result"]["utilization"]
    assert body2["result"]["subsets"] == body["result"]["subsets"]
    stats = client.stats()
    assert stats["service"]["fast_hits"] >= 1


def test_submit_nowait_then_poll(client):
    payload = {**FAST, "models": 4}
    status, body = client.submit(payload)
    assert status in (200, 202)
    job_id = body["id"]
    # Poll until terminal (compile takes well under the client timeout).
    import time

    deadline = time.time() + 60
    while time.time() < deadline:
        status, snap = client.job(job_id)
        assert status == 200
        if snap["state"] in ("done", "rejected", "failed"):
            break
        time.sleep(0.05)
    assert snap["state"] == "done"
    # /v1/jobs/<id> omits events; the dedicated stream endpoint has them.
    events = list(client.events(job_id))
    kinds = [e["event"] for e in events]
    assert kinds[0] == "enqueue"
    assert "stage" in kinds  # the worker's profile reached the stream
    assert kinds[-1] == "done"


def test_event_stream_replays_for_finished_job(client):
    status, body = client.submit(FAST, wait=True)
    assert status == 200
    events = list(client.events(body["id"]))
    assert events and events[-1]["event"] == body["state"]
    seqs = [e["seq"] for e in events]
    assert seqs == sorted(seqs)


def test_refuted_instance_rejected_with_certificates(client):
    status, body = client.submit(REFUTED, wait=True)
    assert status == 200
    assert body["state"] == "rejected"
    assert body["result"]["verdict"] == "REF"
    diagnosis = body["result"]["diagnosis"]
    assert diagnosis["refuted"] is True
    assert diagnosis["refutations"]


def test_diagnose_kind_returns_diagnosis(client):
    status, body = client.submit({**FAST, "kind": "diagnose"}, wait=True)
    assert status == 200
    assert body["state"] == "done"
    assert body["result"]["diagnosis"]["refuted"] is False


def test_check_kind_attaches_conformance_report(client):
    status, body = client.submit({**FAST, "kind": "check"}, wait=True)
    assert status == 200
    assert body["state"] == "done"
    report = body["result"]["check"]
    assert report["ok"] is True
    assert report["checks"]


def test_malformed_payloads_get_400(client):
    for payload in (
        {"topology": "nope", "load": 0.5},
        {"topology": "hypercube6"},
        {"topology": "hypercube6", "load": 7},
        # A worker-side ValueError -> JOB_FAILED before strict coercion.
        {"topology": "hypercube6", "load": 0.5,
         "config": {"lp_backend": "nonsense"}},
    ):
        status, body = client.submit(payload)
        assert status == 400
        assert "error" in body
    # Unparseable JSON body is also a 400, not a connection reset.
    conn = client._connection()
    conn.request(
        "POST", "/v1/jobs", body=b"{not json",
        headers={"Content-Type": "application/json"},
    )
    response = conn.getresponse()
    assert response.status == 400
    response.read()


def test_infinite_bandwidth_gets_400_counted_malformed(client):
    """``Infinity`` is valid to Python's JSON reader; an instance at
    infinite bandwidth is not one (it would "compile" to U = 0 and echo
    ``Infinity`` back, which is not JSON)."""
    before = client.stats()["service"]
    status, body = client.submit({**FAST, "bandwidth": float("inf")})
    assert status == 400
    assert body == {"error": "bandwidth must be finite, got inf"}
    after = client.stats()["service"]
    assert after["malformed"] == before["malformed"] + 1
    assert after["submitted"] == before["submitted"]


@pytest.mark.parametrize("bandwidth", [16, 63.99])
def test_bandwidth_below_calibration_gets_400_counted_malformed(
    client, bandwidth
):
    """Below B = 64 the longest DVB message outlasts its window: a 400
    counted as malformed, not a 500 from the firewall."""
    before = client.stats()["service"]
    status, body = client.submit({**FAST, "bandwidth": bandwidth})
    assert status == 400
    assert body == {"error": "bandwidth must be >= 64 (the calibration "
                             f"bandwidth), got {float(bandwidth)}"}
    after = client.stats()["service"]
    assert after["malformed"] == before["malformed"] + 1
    assert after["submitted"] == before["submitted"]


@pytest.mark.parametrize("timeout", ["abc", "nan", "-1"])
def test_malformed_timeout_gets_400_before_submission(client, timeout):
    """A ``timeout`` that is not a finite, non-negative number is a 400
    counted as malformed, and no job is submitted: the caller is never
    told "failed" about a job that still compiles."""
    before = client.stats()["service"]
    status, body = client.request(
        "POST", f"/v1/jobs?wait=1&timeout={timeout}", {**FAST, "models": 2}
    )
    assert status == 400 and set(body) == {"error"}
    after = client.stats()["service"]
    assert after["submitted"] == before["submitted"]
    assert after["malformed"] == before["malformed"] + 1
    assert client.healthz()["ok"] is True


@pytest.mark.parametrize(
    "raw",
    [
        b"GARBAGE\r\n\r\n",
        b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 1048577\r\n\r\n",
        b"POST /v1/jobs HTTP/1.1\r\nContent-Length: many\r\n\r\n",
        b"POST /v1/jobs HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
        b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
        b"GET /v1/healthz HTTP/1.1\r\nX-Pad: " + b"a" * 70_000
        + b"\r\nConnection: close\r\n\r\n",
        b"GET /v1/healthz HTTP/1.1\r\nConnection: close\r\n"
        + b"X-Pad: 1\r\n" * 100 + b"\r\n",
    ],
    ids=["request-line", "oversized-body", "non-integer-length",
         "negative-length", "overlong-request-line", "overlong-header-line",
         "header-flood"],
)
def test_unreadable_request_gets_its_400(server, client, raw, caplog):
    """A request ``_read_request`` itself rejects is answered with the
    one-line JSON 400 docs/serve.md promises, then the connection closes
    — not a bare close with a traceback in the daemon's log."""
    with caplog.at_level(logging.ERROR, logger="asyncio"):
        with socket.create_connection(("127.0.0.1", server.port), 10) as sock:
            sock.sendall(raw)
            answer = b""
            while chunk := sock.recv(4096):  # until the server closes
                answer += chunk
    head, _, body = answer.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 Bad Request\r\n")
    assert b"Connection: close" in head
    assert set(json.loads(body)) == {"error"}
    assert not caplog.records
    assert client.healthz()["ok"] is True  # a new connection still works


def test_unknown_job_and_route(client):
    status, _body = client.job("job-999999")
    assert status == 404
    status, _body = client.request("GET", "/v1/nothing-here")
    assert status == 404
    status, _body = client.request("DELETE", "/v1/jobs")
    assert status == 405


def test_stats_shape(client):
    stats = client.stats()
    assert {"uptime_s", "workers", "queue_depth", "service", "cache"} <= (
        stats.keys()
    )
    service = stats["service"]
    assert service["submitted"] >= service["completed"]
    assert stats["cache"]["hits"] + stats["cache"]["misses"] >= 0


def test_worker_pool_mode_round_trip(tmp_path):
    """The real ProcessPool path: compile in a child, stats persisted."""
    config = ServeConfig(workers=2, cache_dir=tmp_path / "cache")
    with ServerThread(config) as thread:
        with ServeClient("127.0.0.1", thread.port, timeout=180) as client:
            status, body = client.submit(FAST, wait=True)
            assert status == 200
            assert body["state"] == "done"
            assert body["result"]["feasible"] is True
            # The child's profile is the one source of stage events: one
            # per profiled stage, in order, between running and done.
            events = list(client.events(body["id"]))
            kinds = [e["event"] for e in events]
            stages = body["result"]["profile"]["stages"]
            assert stages and "stage-done" not in kinds
            first = kinds.index("stage")
            assert kinds[first - 1] == "running"
            assert kinds[first:] == ["stage"] * len(stages) + ["done"]
            assert [
                {k: e[k] for k in ("stage", "wall_ms", "start_ms", "detail")}
                for e in events[first:-1]
            ] == stages
            # A duplicate is answered without a second child dispatch.
            status2, body2 = client.submit(FAST, wait=True)
            assert status2 == 200 and body2["state"] == "done"
            stats = client.stats()
            assert stats["service"]["dispatched"] == 1
            assert stats["service"]["fast_hits"] == 1
    # Drain persisted the merged cache counters next to the entries.
    persisted = json.loads(
        (tmp_path / "cache" / "cache-stats.json").read_text()
    )
    assert persisted["stores"] >= 1
