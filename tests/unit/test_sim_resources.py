"""Unit tests for FCFS resources, stores, and monitors."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, Monitor, Resource


class TestResource:
    def test_immediate_grant_when_free(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        request = resource.request()
        assert request.triggered
        assert resource.count == 1

    def test_fcfs_ordering(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        grants = []

        def user(env, name, hold):
            request = resource.request(owner=name)
            yield request
            grants.append((env.now, name))
            yield env.timeout(hold)
            resource.release(request)

        env.process(user(env, "first", 2.0))
        env.process(user(env, "second", 1.0))
        env.process(user(env, "third", 1.0))
        env.run()
        assert grants == [(0.0, "first"), (2.0, "second"), (3.0, "third")]

    def test_capacity_two_grants_in_parallel(self):
        env = Environment()
        resource = Resource(env, capacity=2)
        r1, r2, r3 = resource.request(), resource.request(), resource.request()
        assert r1.triggered and r2.triggered and not r3.triggered
        assert resource.queue_length == 1
        resource.release(r1)
        assert r3.triggered

    def test_release_unheld_rejected(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        granted = resource.request()
        resource.release(granted)
        with pytest.raises(SimulationError):
            resource.release(granted)

    def test_cancel_queued(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        first = resource.request()
        second = resource.request()
        resource.cancel(second)
        resource.release(first)
        assert not second.triggered
        assert resource.count == 0

    def test_cancel_granted_rejected(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        granted = resource.request()
        with pytest.raises(SimulationError):
            resource.cancel(granted)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Resource(Environment(), capacity=0)

    def test_grant_time_recorded(self):
        env = Environment()
        resource = Resource(env, capacity=1)

        def holder(env):
            request = resource.request()
            yield request
            yield env.timeout(5.0)
            resource.release(request)

        env.process(holder(env))

        def waiter(env):
            yield env.timeout(1.0)
            request = resource.request()
            yield request
            return (request.request_time, request.grant_time)

        process = env.process(waiter(env))
        assert env.run(until=process) == (1.0, 5.0)

    def test_holders_snapshot(self):
        env = Environment()
        resource = Resource(env, capacity=2)
        r1 = resource.request(owner="x")
        assert [r.owner for r in resource.holders] == ["x"]
        resource.release(r1)
        assert resource.holders == ()


class TestResourceFailure:
    def test_failed_resource_queues_instead_of_granting(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        resource.fail()
        assert resource.failed
        request = resource.request(owner="x")
        assert not request.triggered
        assert resource.queue_length == 1

    def test_restore_drains_queue_fcfs(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        resource.fail()
        first = resource.request(owner="a")
        second = resource.request(owner="b")
        resource.restore()
        assert first.triggered
        assert not second.triggered  # capacity 1: b still queued behind a

    def test_holder_keeps_grant_across_failure(self):
        # Detection is at the next acquisition attempt (packet boundary):
        # an in-flight holder is not preempted by the failure.
        env = Environment()
        resource = Resource(env, capacity=1)
        granted = resource.request(owner="holder")
        resource.fail()
        assert granted.triggered
        assert resource.count == 1
        resource.release(granted)
        # The freed capacity must NOT be granted while the link is down.
        late = resource.request(owner="late")
        assert not late.triggered
        resource.restore()
        assert late.triggered

    def test_repr_marks_down(self):
        env = Environment()
        resource = Resource(env, capacity=1, name="L")
        resource.fail()
        assert "DOWN" in repr(resource)
        resource.restore()
        assert "DOWN" not in repr(resource)


class TestMonitor:
    def test_records_and_iterates(self):
        monitor = Monitor("m")
        monitor.record(1.0, "a")
        monitor.record(2.0, "b")
        assert list(monitor) == [(1.0, "a"), (2.0, "b")]
        assert len(monitor) == 2

    def test_rejects_time_travel(self):
        monitor = Monitor()
        monitor.record(5.0, 1)
        with pytest.raises(ValueError):
            monitor.record(4.0, 2)

    def test_same_time_allowed(self):
        monitor = Monitor()
        monitor.record(5.0, 1)
        monitor.record(5.0, 2)
        assert len(monitor) == 2
