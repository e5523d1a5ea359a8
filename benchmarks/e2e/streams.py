"""Stream workloads: a closed loop against the serve daemon.

``serve_hot`` and ``serve_cold``.  The daemon is a child process
(``python -m repro.cli serve --port 0 --workers 1``), never a thread of
the generator; two connections each send their next request when the
previous reply arrived, as callers of ``submit --wait`` do.  The
server-side split of a request comes from its reply body and
``/v1/stats``, never from patched code.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from benchmarks.e2e import calibrate, inputs, procs, spans, stats
from benchmarks.e2e.compile_op import warm_solver
from benchmarks.e2e.rounds import (
    Measurement,
    median_of_rounds,
    load_expected,
    spec_key,
)

from repro.serve.client import ServeClient
from repro.serve.jobs import JobRequest
from repro.serve.worker import execute_request

#: ``/v1/stats`` service counters reported as window deltas.
SERVICE_COUNTERS = ("fast_hits", "dispatched", "coalesced", "rejected",
                    "failed")


@dataclass
class Reply:
    """One request as the client saw it.  The ``*_ms`` properties are at
    reference speed: divided by the slowdown sampled over the window (1
    until the window is over; see calibrate.py)."""

    request: int
    start: float
    end: float
    status: int
    state: str | None
    raw_elapsed_ms: float
    result: dict[str, Any]
    slowdown: float = 1.0

    @property
    def raw_rtt_ms(self) -> float:
        return (self.end - self.start) * 1000.0

    @property
    def rtt_ms(self) -> float:
        return self.raw_rtt_ms / self.slowdown

    @property
    def elapsed_ms(self) -> float:
        """``elapsed_ms`` of the job snapshot: accept to finish."""
        return self.raw_elapsed_ms / self.slowdown

    @property
    def worker_compile_ms(self) -> float:
        """Sum of the compile stages the worker profiled."""
        profile = self.result.get("profile") or {}
        return sum(stage["wall_ms"] for stage in
                   profile.get("stages", ())) / self.slowdown


class ServeWorkload:
    name = ""
    #: Ops in one round; request g is op ``g % round_ops`` of round
    #: ``g // round_ops``.
    round_ops = 0
    #: Keep each reply's ``result`` (serve_cold reads the worker profile
    #: out of it; serve_hot would only hoard thousands of copies).
    keep_results = False

    def __init__(self, seed: int, workdir: Path, trace: bool) -> None:
        self.workdir = workdir
        self.trace = trace
        self.specs = inputs.op_list(self.name, seed)
        self.daemon: procs.Daemon | None = None
        self.clients: list[ServeClient] = []
        #: Next request of each connection; connection c sends c, c+2...
        self.cursor = list(range(inputs.SERVE_CONNECTIONS))

    # -- hooks ---------------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def spec(self, request: int) -> dict[str, Any]:
        raise NotImplementedError

    def payload(self, request: int) -> dict[str, Any]:
        raise NotImplementedError

    def expect(self, request: int) -> tuple[int, str | None]:
        """HTTP status and job state a correct reply carries."""
        raise NotImplementedError

    def check_reply(self, reply: Reply) -> list[str]:
        got = (reply.status, reply.state)
        if got != self.expect(reply.request):
            return [f"expected {self.expect(reply.request)}, got {got}"]
        return []

    def check_window(self, replies, dispatched: int) -> list[str]:
        return []

    def observed(self, replies) -> dict[str, Any]:
        raise NotImplementedError

    def layers(self, replies) -> dict[str, float]:
        raise NotImplementedError

    # -- daemon and loop -----------------------------------------------------

    def start_daemon(self) -> None:
        self.daemon = procs.Daemon(self.workdir / "serve-cache",
                                   self.workdir / "serve.log")
        self.clients = [
            ServeClient("127.0.0.1", self.daemon.port)
            for _ in range(inputs.SERVE_CONNECTIONS)
        ]

    def close(self) -> None:
        for client in self.clients:
            client.close()
        if self.daemon is not None:
            self.daemon.stop()

    def send(self, client: ServeClient, request: int) -> Reply:
        start = time.perf_counter()
        try:
            status, body = client.submit(self.payload(request), wait=True)
        except OSError:    # refused, reset or timed out: a failed op
            status, body = 599, {}
        end = time.perf_counter()
        return Reply(request, start, end, status, body.get("state"),
                     float(body.get("elapsed_ms", 0.0)),
                     (body.get("result") or {}) if self.keep_results else {})

    def drive(self, seconds: float | None, limit: int | None = None
              ) -> list[Reply]:
        """The closed loop: until ``limit`` requests per connection, or
        until the first round boundary after ``seconds``."""
        replies: list[list[Reply]] = [[] for _ in self.clients]
        deadline = None if seconds is None else time.perf_counter() + seconds
        stride = len(self.clients)

        def loop(connection: int) -> None:
            while True:
                request = self.cursor[connection]
                if request % self.round_ops < stride and (
                    deadline is not None and time.perf_counter() >= deadline
                ):
                    return
                if limit is not None and len(replies[connection]) >= limit:
                    return
                if request >= self.requests_available():
                    return
                self.cursor[connection] = request + stride
                replies[connection].append(
                    self.send(self.clients[connection], request))

        threads = [threading.Thread(target=loop, args=(connection,))
                   for connection in range(stride)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return [reply for per in replies for reply in per]

    def requests_available(self) -> float:
        return float("inf")

    def align(self) -> None:
        """Move every connection to the start of the next round."""
        round_start = -(-max(self.cursor) // self.round_ops) * self.round_ops
        self.cursor = [round_start + connection
                       for connection in range(len(self.clients))]

    def measure(self, seconds: float) -> Measurement:
        assert self.daemon is not None
        probe = self.clients[0]
        self.align()
        pids = procs.descendants(self.daemon.pid)

        def cpu_clock() -> float:
            """CPU seconds of the generator, the daemon and its worker."""
            return time.process_time() + procs.cpu_s(pids)

        before = probe.stats()
        cpu_before = cpu_clock()
        with calibrate.Sampler() as sampler:
            sent = self.drive(seconds)
        raw_cpu_ms = (cpu_clock() - cpu_before) * 1000.0 / len(sent)
        after = probe.stats()
        service = {name: after["service"][name] - before["service"][name]
                   for name in SERVICE_COUNTERS}

        # Whole rounds only: the connections stop at different boundaries.
        by_round: dict[int, list[Reply]] = defaultdict(list)
        for reply in sent:
            by_round[reply.request // self.round_ops].append(reply)
        whole = sorted(number for number, replies in by_round.items()
                       if len(replies) == self.round_ops)
        replies = [reply for number in whole for reply in by_round[number]]
        # The window's readings at reference speed: divided by the median
        # slowdown sampled while it ran.  (One factor per window: a
        # round's own few samples, taken by a thread that just woke next
        # to busier processes, scatter more than the rounds differ.)
        slowdown = sampler.median()
        for number in whole:
            for reply in by_round[number]:
                reply.slowdown = slowdown
            by_round[number].sort(key=lambda reply: reply.request)
        # An op's time is its median over the rounds here, not its best as
        # in rounds.py: a window holds ten rounds or more, and with two
        # connections on one worker a round trip is the caller's compile
        # plus the other connection's, except when the phase slips, which
        # is what the best of the rounds would pick.
        raw_ms = median_of_rounds(
            [[reply.raw_rtt_ms for reply in by_round[n]] for n in whole])
        op_ms = median_of_rounds(
            [[reply.rtt_ms for reply in by_round[n]] for n in whole])

        failures = [
            f"op {inputs.op_id(reply.request, self.spec(reply.request))}: "
            f"{problem}"
            for reply in sent for problem in self.check_reply(reply)
        ]
        failures += self.check_window(sent, service["dispatched"])
        observed = self.observed(sent)
        expected = load_expected(self.name)
        failures += [
            f"{key}: expected {expected[key]}, got {value}"
            for key, value in observed.items()
            if key in expected and expected[key] != value
        ]
        first = min(replies, key=lambda reply: reply.start)
        measurement = Measurement(
            # Closed loop: each connection has one request in flight.
            ops_per_s=len(self.clients) * 1000.0 / stats.mean(op_ms),
            op_p50_ms=stats.percentile(op_ms, 0.5),
            op_p90_ms=stats.percentile(op_ms, 0.9),
            percentile_samples=self.round_ops,
            cpu_ms_per_op=raw_cpu_ms / slowdown,
            peak_rss_mb=procs.tree_peak_rss_mb(self.daemon.pid),
            attempted=len(sent),
            failures=failures,
            rounds=len(whole),
            first_op_over_p50=(
                first.rtt_ms / op_ms[first.request % self.round_ops]),
            slowdown=slowdown,
            raw={
                "ops_per_s": len(self.clients) * 1000.0 / stats.mean(raw_ms),
                "op_p50_ms": stats.percentile(raw_ms, 0.5),
                "op_p90_ms": stats.percentile(raw_ms, 0.9),
                "cpu_ms_per_op": raw_cpu_ms,
            },
            observed=observed,
        )
        if self.trace:
            rtt_ms = [reply.rtt_ms for reply in replies]
            floor_ms = self.healthz_ms()
            measurement.trace = self.spans_of(replies, floor_ms)
            layers = self.layers(replies)
            layers.update(
                {f"serve.{name}": float(service[name])
                 for name in SERVICE_COUNTERS})
            layers.update({
                "serve.http_5xx":
                    float(sum(1 for r in sent if r.status >= 500)),
                "serve.jobs_tracked": float(before["jobs_tracked"]),
                "serve.rtt_p99_ms": stats.percentile(rtt_ms, 0.99),
                "serve.healthz_rtt_ms": floor_ms,
                "serve.server_elapsed_ms":
                    stats.median([r.elapsed_ms for r in replies]),
                "serve.http_overhead_ms":
                    stats.median([r.rtt_ms - r.elapsed_ms for r in replies]),
                "bench.unattributed_share":
                    spans.unattributed_share(measurement.trace),
                "bench.first_op_over_p50": measurement.first_op_over_p50,
                # Serve spans are built from the replies after the window:
                # the loop runs the same code traced or not.
                "bench.trace_overhead_share": 0.0,
            })
            measurement.layers = layers
        return measurement

    def healthz_ms(self) -> float:
        """Round trip of the cheapest endpoint: the HTTP floor."""
        samples = []
        for _ in range(200):
            began = time.perf_counter()
            self.clients[0].healthz()
            samples.append((time.perf_counter() - began) * 1000.0)
        return stats.median(samples) / calibrate.slowdown_now()

    def spans_of(self, replies, floor_ms: float) -> list[list]:
        """One root span per request.  Its children are what can be seen
        from outside: the HTTP floor (a ``/v1/healthz`` round trip), the
        ``elapsed_ms`` the reply reports, and inside that the worker's
        stage profile.  The rest of the round trip stays unattributed."""
        tracer = spans.Tracer()
        for reply in replies:
            op = inputs.op_id(reply.request, self.spec(reply.request))
            start = reply.start / reply.slowdown
            rtt = reply.rtt_ms / 1000.0
            end = start + rtt
            root = tracer.add("op", start, end, op=op)
            server = min(reply.elapsed_ms / 1000.0, rtt)
            floor = min(floor_ms / 1000.0, rtt - server)
            tracer.add("serve.http_floor", start, start + floor,
                       parent=root, op=op)
            if server:
                inside = tracer.add("serve.server_elapsed", end - server,
                                    end, parent=root, op=op)
                worker = min(reply.worker_compile_ms / 1000.0, server)
                if worker:
                    tracer.add("serve.worker_compile", end - worker, end,
                               parent=inside, op=op)
        return tracer.spans


class ServeHot(ServeWorkload):
    name = "serve_hot"
    EXPECT = {"duplicate": (200, "done"), "refuted": (200, "rejected"),
              "malformed": (400, None)}

    round_ops = inputs.SERVE_HOT_ROUND_OPS

    def spec(self, request):
        return self.specs[request % self.round_ops]

    def payload(self, request):
        spec = self.spec(request)
        return self.tables[spec["class"]][spec["index"]]

    def expect(self, request):
        return self.EXPECT[self.spec(request)["class"]]

    def setup(self) -> None:
        self.tables = inputs.serve_hot_tables()
        self.start_daemon()
        for payload in self.tables["duplicate"] + self.tables["refuted"]:
            status, body = self.clients[0].submit(payload, wait=True)
            if status != 200:
                raise RuntimeError(f"set-up request failed: {status} {body}")
        # Steady state: the job store holds history_limit jobs before the
        # window opens, so every add also evicts (throughput roughly
        # halves from there; a run from an empty store averages it away).
        fill = self.drive(None, limit=inputs.SERVE_HOT_FILL
                          // inputs.SERVE_CONNECTIONS + 1)
        fill.sort(key=lambda reply: reply.start)
        slow = calibrate.slowdown_now()
        self.empty_history_rtt_ms = [reply.rtt_ms / slow
                                     for reply in fill[:1000]]
        tracked = self.clients[0].stats()["jobs_tracked"]
        if tracked < inputs.SERVE_HISTORY_LIMIT:
            raise RuntimeError(
                f"job store holds {tracked} jobs, fewer than "
                f"{inputs.SERVE_HISTORY_LIMIT}: the window would not be "
                "steady state")

    def check_window(self, replies, dispatched):
        if dispatched:
            return [f"{dispatched} requests reached a worker"]
        return []

    def observed(self, replies):
        seen: dict[str, Any] = {}
        for reply in replies:
            cls = self.spec(reply.request)["class"]
            seen.setdefault(cls, [reply.status, reply.state])
        return seen

    def layers(self, replies):
        by_class: dict[str, list[float]] = defaultdict(list)
        for reply in replies:
            by_class[self.spec(reply.request)["class"]].append(reply.rtt_ms)
        payloads = self.tables["duplicate"] * 100
        per_call = 1000.0 / (len(payloads) * calibrate.slowdown_now())
        began = time.perf_counter()
        requests = [JobRequest.from_payload(p) for p in payloads]
        parse_ms = (time.perf_counter() - began) * per_call
        began = time.perf_counter()
        for request in requests:
            request.instance_signature()
        signature_ms = (time.perf_counter() - began) * per_call
        return {
            "serve.duplicate_p50_ms": stats.median(by_class["duplicate"]),
            "serve.refuted_p50_ms": stats.median(by_class["refuted"]),
            "serve.malformed_p50_ms": stats.median(by_class["malformed"]),
            "serve.p50_empty_history_ms":
                stats.median(self.empty_history_rtt_ms),
            "serve.parse_ms": parse_ms,
            "serve.signature_ms": signature_ms,
        }


class ServeCold(ServeWorkload):
    name = "serve_cold"
    keep_results = True
    #: Completed requests re-run in-process through
    #: ``repro.serve.worker.execute_request``: the cross-check of the
    #: daemon's answers, and the worker's work without the queue.
    CROSS_CHECKED = 6
    #: Requests whose verdict expected/seed0.json pins: how many rounds
    #: complete depends on the machine, the first four always do.
    PINNED = 4 * inputs.SERVE_COLD_ROUND_OPS
    round_ops = inputs.SERVE_COLD_ROUND_OPS

    def spec(self, request):
        return self.specs[request]

    def payload(self, request):
        return self.specs[request]["payload"]

    def expect(self, request):
        return (200, "done")

    def requests_available(self):
        return len(self.specs)

    def setup(self) -> None:
        self.start_daemon()
        self.execute_ms: list[float] = []
        # Warm requests: the first starts the worker process and its
        # imports, the second finds them loaded.
        self.drive(None, limit=1)
        self.drive(None, limit=1)

    def check_reply(self, reply):
        problems = super().check_reply(reply)
        if reply.result.get("cache_hit"):
            problems.append("a never-seen instance was served from the cache")
        return problems

    def check_window(self, replies, dispatched):
        problems = []
        if dispatched != len(replies):
            problems.append(
                f"{dispatched} dispatched for {len(replies)} requests")
        warm_solver()
        slow = calibrate.slowdown_now()
        step = max(len(replies) // self.CROSS_CHECKED, 1)
        for reply in replies[::step][:self.CROSS_CHECKED]:
            request = JobRequest.from_payload(self.payload(reply.request))
            began = time.perf_counter()
            mine = execute_request({
                "request": request.canonical(),
                "cache_dir": str(self.workdir / "inproc-cache"),
            })
            self.execute_ms.append(
                (time.perf_counter() - began) * 1000.0 / slow)
            for key in ("verdict", "commands", "subsets"):
                if mine.get(key) != reply.result.get(key):
                    problems.append(
                        f"op {reply.request}: daemon says {key}="
                        f"{reply.result.get(key)}, in-process "
                        f"{mine.get(key)}")
        return problems

    def observed(self, replies):
        return {
            spec_key(self.spec(reply.request)): reply.result.get("verdict")
            for reply in replies if reply.request < self.PINNED
        }

    def layers(self, replies):
        worker = [reply.worker_compile_ms for reply in replies]
        return {
            "serve.worker_compile_ms": stats.median(worker),
            "serve.dispatch_overhead_ms": stats.median(
                [reply.elapsed_ms - ms for reply, ms in zip(replies, worker)]),
            "serve.execute_request_ms": stats.median(self.execute_ms),
        }
