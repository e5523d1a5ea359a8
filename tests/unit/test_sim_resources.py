"""Unit tests for FCFS resources, stores, and monitors."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, Monitor, Resource


class TestResource:
    def test_immediate_grant_when_free(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        claim = resource.claim()
        assert claim.grant_time == 0.0
        assert resource.count == 1
        assert not env._agenda  # no callback, no agenda entry

    def test_fcfs_ordering(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        grants = []
        holds = {"first": 2.0, "second": 1.0, "third": 1.0}

        def granted(claim):
            grants.append((env.now, claim.owner))
            env.call_later(holds[claim.owner], resource.release, claim)

        for name in holds:
            resource.claim(owner=name, on_grant=granted)
        env.run()
        assert grants == [(0.0, "first"), (2.0, "second"), (3.0, "third")]

    def test_grant_callback_runs_from_the_agenda(self):
        """An on-the-spot grant's callback runs at the grant instant, but
        behind entries already due then (the FCFS tie rule)."""
        env = Environment()
        resource = Resource(env, capacity=1)
        order = []
        env.call_later(0.0, order.append, "queued first")
        resource.claim(owner="x", on_grant=lambda c: order.append(c.owner))
        assert order == []
        env.run()
        assert order == ["queued first", "x"]

    def test_callback_set_on_a_queued_claim(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        holder = resource.claim(owner="a")
        waiter = resource.claim(owner="b")
        assert waiter.grant_time is None
        seen = []
        waiter.on_grant = lambda c: seen.append((env.now, c.owner))
        env.call_later(4.0, resource.release, holder)
        env.run()
        assert seen == [(4.0, "b")]

    def test_capacity_two_grants_in_parallel(self):
        env = Environment()
        resource = Resource(env, capacity=2)
        r1, r2, r3 = resource.claim(), resource.claim(), resource.claim()
        assert r1.grant_time == r2.grant_time == 0.0 and r3.grant_time is None
        assert resource.queue_length == 1
        resource.release(r1)
        assert r3.grant_time == 0.0

    def test_release_unheld_rejected(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        granted = resource.claim()
        resource.release(granted)
        with pytest.raises(SimulationError):
            resource.release(granted)

    def test_cancel_queued(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        first = resource.claim()
        second = resource.claim()
        resource.cancel(second)
        resource.release(first)
        assert second.grant_time is None
        assert resource.count == 0

    def test_cancel_granted_rejected(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        granted = resource.claim()
        with pytest.raises(SimulationError):
            resource.cancel(granted)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Resource(Environment(), capacity=0)

    def test_grant_time_recorded(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        holder = resource.claim()
        env.call_later(5.0, resource.release, holder)
        late = []
        env.call_later(1.0, lambda _: late.append(resource.claim()), None)
        env.run()
        assert (late[0].request_time, late[0].grant_time) == (1.0, 5.0)

    def test_holders_snapshot(self):
        env = Environment()
        resource = Resource(env, capacity=2)
        r1 = resource.claim(owner="x")
        assert [r.owner for r in resource.holders] == ["x"]
        resource.release(r1)
        assert resource.holders == ()


class TestResourceFailure:
    def test_failed_resource_queues_instead_of_granting(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        resource.fail()
        assert resource.failed
        request = resource.claim(owner="x")
        assert request.grant_time is None
        assert resource.queue_length == 1

    def test_restore_drains_queue_fcfs(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        resource.fail()
        first = resource.claim(owner="a")
        second = resource.claim(owner="b")
        resource.restore()
        assert first.grant_time is not None
        assert second.grant_time is None  # capacity 1: b still queued behind a

    def test_holder_keeps_grant_across_failure(self):
        # Detection is at the next acquisition attempt (packet boundary):
        # an in-flight holder is not preempted by the failure.
        env = Environment()
        resource = Resource(env, capacity=1)
        granted = resource.claim(owner="holder")
        resource.fail()
        assert granted.grant_time is not None
        assert resource.count == 1
        resource.release(granted)
        # The freed capacity must NOT be granted while the link is down.
        late = resource.claim(owner="late")
        assert late.grant_time is None
        resource.restore()
        assert late.grant_time is not None

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
