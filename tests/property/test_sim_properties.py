"""Property-based tests of the discrete-event kernel."""

from hypothesis import given, strategies as st

from repro.sim import Environment, Resource


class TestEventOrdering:
    @given(st.lists(st.floats(min_value=0.0, max_value=1000.0),
                    min_size=1, max_size=40))
    def test_timeouts_fire_in_time_order(self, delays):
        env = Environment()
        fired: list[tuple[float, int]] = []
        for index, delay in enumerate(delays):
            env.call_later(
                delay, lambda index: fired.append((env.now, index)), index
            )
        env.run()
        times = [t for t, _ in fired]
        assert times == sorted(times)
        assert len(fired) == len(delays)

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0),
                    min_size=2, max_size=20))
    def test_equal_times_fire_fifo(self, delays):
        env = Environment()
        fired: list[int] = []
        for index in range(len(delays)):
            env.call_later(5.0, fired.append, index)
        env.run()
        assert fired == list(range(len(delays)))


class TestResourceInvariants:
    @given(
        st.integers(min_value=1, max_value=4),
        st.lists(st.floats(min_value=0.1, max_value=10.0),
                 min_size=1, max_size=25),
    )
    def test_capacity_never_exceeded_and_grants_fifo(self, capacity, holds):
        env = Environment()
        resource = Resource(env, capacity=capacity)
        grant_order: list[int] = []
        peak = [0]

        def granted(claim):
            grant_order.append(claim.owner)
            peak[0] = max(peak[0], resource.count)
            assert resource.count <= capacity
            env.call_later(holds[claim.owner], resource.release, claim)

        for index in range(len(holds)):
            resource.claim(owner=index, on_grant=granted)
        env.run()
        assert resource.count == 0
        assert peak[0] <= capacity
        # All claims were made at t=0 in index order: grants are FIFO.
        assert grant_order == list(range(len(holds)))

    @given(st.lists(st.floats(min_value=0.1, max_value=5.0),
                    min_size=1, max_size=15))
    def test_total_busy_time_conserved(self, holds):
        env = Environment()
        resource = Resource(env, capacity=1)

        def granted(claim):
            env.call_later(claim.owner, resource.release, claim)

        for hold in holds:
            resource.claim(owner=hold, on_grant=granted)
        env.run()
        # Serialized on capacity 1: finish time is the sum of holds.
        assert env.now == sum(holds)
