"""Unit tests for the discrete-event kernel: events, environment, processes."""

import pytest

from repro.errors import SimulationError
from repro.sim import AllOf, Environment, Event


class TestEvent:
    def test_lifecycle(self):
        env = Environment()
        event = env.event()
        assert not event.triggered and not event.processed
        event.succeed(42)
        assert event.triggered and not event.processed
        env.run()
        assert event.processed and event.ok and event.value == 42

    def test_double_trigger_rejected(self):
        env = Environment()
        event = env.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()
        with pytest.raises(SimulationError):
            event.fail(RuntimeError("x"))

    def test_fail_requires_exception(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_value_unavailable_before_trigger(self):
        env = Environment()
        event = env.event()
        with pytest.raises(SimulationError):
            _ = event.value
        with pytest.raises(SimulationError):
            _ = event.ok

    def test_callback_after_processed_runs_immediately(self):
        env = Environment()
        event = env.event()
        event.succeed("x")
        env.run()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        assert seen == ["x"]


class TestTimeout:
    def test_fires_at_delay(self):
        env = Environment()
        timeout = env.timeout(5.0, value="done")
        env.run()
        assert env.now == 5.0
        assert timeout.value == "done"

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.timeout(-1.0)

    def test_zero_delay_fires_now(self):
        env = Environment()
        env.timeout(0.0)
        env.run()
        assert env.now == 0.0


class TestEnvironment:
    def test_fifo_order_of_simultaneous_events(self):
        env = Environment()
        order = []
        for tag in ("a", "b", "c"):
            env.timeout(1.0).add_callback(
                lambda e, tag=tag: order.append(tag)
            )
        env.run()
        assert order == ["a", "b", "c"]

    def test_run_until_time_stops_clock_there(self):
        env = Environment()
        env.timeout(10.0)
        env.run(until=4.0)
        assert env.now == 4.0

    def test_run_until_event_returns_value(self):
        env = Environment()

        def body(env):
            yield env.timeout(3.0)
            return "result"

        process = env.process(body(env))
        assert env.run(until=process) == "result"
        assert env.now == 3.0

    def test_run_until_event_never_fires_raises(self):
        env = Environment()
        orphan = env.event()
        env.timeout(1.0)
        with pytest.raises(SimulationError):
            env.run(until=orphan)

    def test_run_into_past_rejected(self):
        env = Environment()
        env.timeout(5.0)
        env.run()
        with pytest.raises(SimulationError):
            env.run(until=1.0)

    def test_bare_callbacks_share_the_fifo_with_events(self):
        """A ``call_later`` entry and an event due at one instant run in
        the order they were scheduled, whichever kind each is."""
        env = Environment()
        order = []
        env.call_later(1.0, order.append, "call-a")
        env.timeout(1.0).add_callback(lambda e: order.append("event"))
        env.call_later(1.0, order.append, "call-b")
        env.call_later(0.5, order.append, "early")
        env.run()
        assert order == ["early", "call-a", "event", "call-b"]
        assert env.now == 1.0

    def test_bare_callback_into_past_rejected(self):
        with pytest.raises(SimulationError):
            Environment().call_later(-1.0, print, None)

    def test_step_on_empty_agenda_rejected(self):
        with pytest.raises(SimulationError):
            Environment().step()


class TestProcess:
    def test_sequential_timeouts(self):
        env = Environment()
        trace = []

        def body(env):
            yield env.timeout(1.0)
            trace.append(env.now)
            yield env.timeout(2.0)
            trace.append(env.now)

        env.process(body(env))
        env.run()
        assert trace == [1.0, 3.0]

    def test_process_waits_on_process(self):
        env = Environment()

        def child(env):
            yield env.timeout(2.0)
            return 99

        def parent(env):
            value = yield env.process(child(env))
            return value + 1

        top = env.process(parent(env))
        assert env.run(until=top) == 100

    def test_non_generator_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.process(lambda: None)

    def test_yielding_non_event_fails_process(self):
        env = Environment()

        def body(env):
            yield 42

        process = env.process(body(env))
        with pytest.raises(SimulationError):
            env.run(until=process)

    @pytest.mark.parametrize("foreign", [False, True])
    def test_unhandled_bad_yield_fails_the_process_event(self, foreign):
        """A non-event (or another environment's event) fails the process
        like any other error: a waiter is told, the process is dead."""
        env = Environment()
        seen = []

        def body(env):
            yield Environment().timeout(1.0) if foreign else 42

        def waiter(env, child):
            try:
                yield child
            except SimulationError as error:
                seen.append(str(error))

        child = env.process(body(env))
        env.process(waiter(env, child))
        env.run()
        assert not child.is_alive and not child.ok
        assert len(seen) == 1
        assert ("another environment" if foreign else "non-event") in seen[0]

    def test_handled_bad_yield_resumes_at_the_next_yield(self):
        """A process that catches the error and yields a real event is
        resumed by it instead of being dropped (alive forever)."""
        env = Environment()
        log = []

        def body(env):
            try:
                yield 42
            except SimulationError:
                log.append(("caught", env.now))
            yield env.timeout(3.0)
            log.append(("resumed", env.now))
            return "done"

        process = env.process(body(env))
        assert env.run(until=process) == "done"
        assert log == [("caught", 0.0), ("resumed", 3.0)]
        assert not process.is_alive

    def test_exception_in_process_propagates(self):
        env = Environment()

        def body(env):
            yield env.timeout(1.0)
            raise ValueError("boom")

        process = env.process(body(env))
        with pytest.raises(ValueError, match="boom"):
            env.run(until=process)

    def test_unwaited_failing_process_aborts_run(self):
        env = Environment()

        def body(env):
            yield env.timeout(1.0)
            raise ValueError("silent failure surfaced")

        env.process(body(env))
        with pytest.raises(ValueError, match="surfaced"):
            env.run()

    def test_failed_event_throws_into_waiter(self):
        env = Environment()
        gate = env.event()
        caught = []

        def body(env):
            try:
                yield gate
            except RuntimeError as error:
                caught.append(str(error))

        env.process(body(env))

        def failer(env):
            yield env.timeout(1.0)
            gate.fail(RuntimeError("bad gate"))

        env.process(failer(env))
        env.run()
        assert caught == ["bad gate"]

    def test_process_is_alive(self):
        env = Environment()

        def body(env):
            yield env.timeout(1.0)

        process = env.process(body(env))
        assert process.is_alive
        env.run()
        assert not process.is_alive


class TestConditions:
    def test_all_of_waits_for_all(self):
        env = Environment()
        t1 = env.timeout(1.0, value="a")
        t2 = env.timeout(5.0, value="b")
        done = env.all_of([t1, t2])

        def body(env):
            result = yield done
            return (env.now, sorted(result.values()))

        process = env.process(body(env))
        assert env.run(until=process) == (5.0, ["a", "b"])

    def test_empty_all_of_fires_immediately(self):
        env = Environment()
        done = env.all_of([])
        assert done.triggered

    def test_all_of_with_already_fired_events(self):
        env = Environment()
        t1 = env.timeout(1.0)
        env.run()
        done = env.all_of([t1, env.timeout(2.0)])

        def body(env):
            yield done
            return env.now

        process = env.process(body(env))
        assert env.run(until=process) == 3.0

    def test_all_of_propagates_failure(self):
        env = Environment()
        bad = env.event()

        def failer(env):
            yield env.timeout(1.0)
            bad.fail(RuntimeError("child failed"))

        env.process(failer(env))

        def body(env):
            yield env.all_of([bad, env.timeout(10.0)])

        process = env.process(body(env))
        with pytest.raises(RuntimeError, match="child failed"):
            env.run(until=process)

    def test_condition_rejects_foreign_events(self):
        env1, env2 = Environment(), Environment()
        with pytest.raises(SimulationError):
            AllOf(env1, [Event(env2)])
