"""Property-based tests of the discrete-event kernel."""

import heapq
import itertools

from hypothesis import given, settings, strategies as st

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


class HeapAgenda:
    """The reference agenda: every entry on one heap ordered by
    ``(due, seq)``, as the kernel kept them before its FIFO lane."""

    def __init__(self):
        self.now = 0.0
        self._heap = []
        self._seq = itertools.count()

    def call_later(self, delay, fn, arg):
        heapq.heappush(self._heap, (self.now + delay, next(self._seq), fn, arg))

    def run(self, until=None):
        horizon = float("inf") if until is None else until
        while self._heap and self._heap[0][0] <= horizon:
            self.now, _, fn, arg = heapq.heappop(self._heap)
            fn(arg)
        if until is not None:
            self.now = horizon


#: Zero, delays too small to move a clock past 1e-2 (but not one at 0),
#: round values that tie, and anything else.
DELAYS = st.one_of(
    st.just(0.0),
    st.sampled_from([5e-324, 1e-300, 1e-17]),
    st.sampled_from([0.5, 1.0, 2.0]),
    st.floats(min_value=0.0, max_value=8.0),
)
#: An entry: its delay, and the entries it schedules when it runs.
ENTRIES = st.recursive(
    st.tuples(DELAYS, st.just(())),
    lambda inner: st.tuples(DELAYS, st.lists(inner, max_size=3).map(tuple)),
    max_leaves=40,
)
#: Segments of a program: entries scheduled from outside, then
#: ``run(until=now + horizon)``; a last ``run()`` drains the agenda.
PROGRAMS = st.lists(
    st.tuples(
        st.lists(ENTRIES, max_size=4),
        st.one_of(st.just(0.0), st.just(1e-17), st.floats(0.0, 6.0)),
    ),
    min_size=1, max_size=4,
).map(lambda segments: [*segments[:-1], (segments[-1][0], None)])


def play(env, program):
    """Run ``program`` on ``env``: what ran, when, and the clock after
    each ``run``."""
    labels = itertools.count()
    seen = []

    def entry(spec):
        delay, children = spec
        return delay, (next(labels), [entry(child) for child in children])

    def fire(node):
        label, children = node
        seen.append((env.now, label))
        for delay, child in children:
            env.call_later(delay, fire, child)

    for roots, horizon in program:
        for delay, node in map(entry, roots):
            env.call_later(delay, fire, node)
        env.run(until=None if horizon is None else env.now + horizon)
        seen.append(("clock", env.now))
    return seen


class TestAgendaLane:
    @settings(max_examples=300)
    @given(PROGRAMS)
    def test_the_lane_keeps_the_order_of_one_heap(self, program):
        """Entries due now take the FIFO lane, later ones the heap; the
        kernel still runs them in the order of one ``(due, seq)`` heap."""
        assert play(Environment(), program) == play(HeapAgenda(), program)
