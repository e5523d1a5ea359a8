"""Unit tests for the discrete-event kernel: the agenda and its driver."""

import math

import pytest

from repro.errors import SimulationError
from repro.sim import Environment


class TestTimeout:
    """``Environment.timeout``: the delay a driven generator sleeps."""

    def test_fires_at_delay(self):
        env = Environment()
        woke = []

        def body():
            yield env.timeout(5.0)
            woke.append(env.now)

        env.process(body())
        env.run()
        assert woke == [5.0] and env.now == 5.0

    def test_negative_delay_rejected(self):
        env = Environment()

        def body():
            yield env.timeout(-1.0)

        env.process(body())
        with pytest.raises(ValueError):
            env.run()

    def test_zero_delay_fires_now(self):
        env = Environment()

        def body():
            yield env.timeout(0.0)

        env.process(body())
        env.run()
        assert env.now == 0.0


class TestEnvironment:
    def test_fifo_order_of_simultaneous_events(self):
        env = Environment()
        order = []
        for tag in ("a", "b", "c"):
            env.call_later(1.0, order.append, tag)
        env.run()
        assert order == ["a", "b", "c"]

    def test_run_until_time_stops_clock_there(self):
        env = Environment()
        fired = []
        env.call_later(4.0, fired.append, "at the horizon")
        env.call_later(10.0, fired.append, "beyond it")
        env.run(until=4.0)
        assert env.now == 4.0
        assert fired == ["at the horizon"]
        env.run()
        assert env.now == 10.0 and fired[-1] == "beyond it"

    def test_run_into_past_rejected(self):
        env = Environment()
        env.call_later(5.0, print, None)
        env.run()
        with pytest.raises(SimulationError):
            env.run(until=1.0)

    def test_run_until_nan_rejected(self):
        """``nan < now`` is False: a NaN horizon must not pass as a time
        and leave the clock reading NaN."""
        env = Environment()
        env.call_later(5.0, print, None)
        with pytest.raises(SimulationError):
            env.run(until=math.nan)
        assert env.now == 0.0

    def test_bare_callbacks_share_the_fifo_with_events(self):
        """A ``call_later`` entry and a driven generator's wake-up due at
        one instant run in the order they were scheduled; the wake-up is
        scheduled when the generator yields, here during the run at 0."""
        env = Environment()
        order = []

        def body():
            yield env.timeout(1.0)
            order.append("process")

        env.call_later(1.0, order.append, "call-a")
        env.process(body())
        env.call_later(1.0, order.append, "call-b")
        env.call_later(0.5, order.append, "early")
        env.run()
        assert order == ["early", "call-a", "call-b", "process"]
        assert env.now == 1.0

    def test_bare_callback_into_past_rejected(self):
        with pytest.raises(SimulationError):
            Environment().call_later(-1.0, print, None)


class TestProcess:
    """``Environment.process``: the generator driver on ``call_later``."""

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

    def test_generators_resume_fifo(self):
        """N generators x M unit yields: at every instant the generators
        resume in the order they were started."""
        env = Environment()
        log = []

        def ticker(name):
            for _ in range(3):
                yield env.timeout(1.0)
                log.append((env.now, name))

        for name in "abcd":
            env.process(ticker(name))
        env.run()
        assert log == [(t, name) for t in (1.0, 2.0, 3.0) for name in "abcd"]

    def test_exception_in_process_propagates(self):
        """A generator that raises before its first yield aborts the run
        at its start-up instant."""
        env = Environment()

        def body(env):
            raise ValueError("boom")
            yield env.timeout(1.0)  # pragma: no cover - makes it a generator

        env.process(body(env))
        with pytest.raises(ValueError, match="boom"):
            env.run()
        assert env.now == 0.0

    def test_unwaited_failing_process_aborts_run(self):
        env = Environment()

        def body(env):
            yield env.timeout(1.0)
            raise ValueError("silent failure surfaced")

        env.process(body(env))
        with pytest.raises(ValueError, match="surfaced"):
            env.run()
