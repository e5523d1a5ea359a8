"""Unit tests for wormhole deadlock detection and recovery on tori.

Dimension-ordered acquisition over half-duplex links is cycle-free on
generalized hypercubes but not on torus rings: two messages traversing one
ring in opposite directions form a two-party hold-and-wait cycle.  The
simulator must detect the cycle, abort one member, and finish the run.
"""

import random

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, Resource
from repro.tfg import TFGTiming
from repro.tfg.graph import build_tfg
from repro.topology import Torus
from repro.wormhole import WormholeSimulator
from repro.wormhole.simulator import _fewest_held, _find_cycle, _Flight, _MessageRow


@pytest.fixture()
def opposing_pair():
    """Two messages crossing an 8-ring in opposite directions.

    m1: node 0 -> 3 (rightward over links (0,1),(1,2),(2,3));
    m2: node 3 -> 0 (leftward over the same links in reverse order).
    Released simultaneously, they deadlock after one hop each.
    """
    tfg = build_tfg(
        "oppose",
        [("a", 400), ("b", 400), ("x", 400), ("y", 400)],
        [("m1", "a", "b", 1280), ("m2", "x", "y", 1280)],
    )
    timing = TFGTiming(tfg, 128.0, speeds=40.0)
    topology = Torus((8,))
    allocation = {"a": 0, "b": 3, "x": 3, "y": 0}
    return timing, topology, allocation


class TestRecovery:
    def test_opposing_ring_traffic_recovers(self, opposing_pair):
        timing, topology, allocation = opposing_pair
        simulator = WormholeSimulator(timing, topology, allocation)
        result = simulator.run(tau_in=100.0, invocations=10, warmup=2)
        assert result.extra["recoveries"] >= 1
        assert len(result.completion_times) == 10

    def test_recovery_budget_exhaustion_raises(self, opposing_pair):
        timing, topology, allocation = opposing_pair
        simulator = WormholeSimulator(timing, topology, allocation)
        with pytest.raises(SimulationError, match="deadlock"):
            simulator.run(tau_in=100.0, invocations=10, warmup=2,
                          max_recoveries=0)

    def test_hypercube_never_recovers(self, cube6, dvb5):
        """Ascending-dimension acquisition over shared links is provably
        cycle-free on GHCs: recovery count must be zero."""
        from repro.experiments import standard_setup

        setup = standard_setup(dvb5, cube6, 128.0)
        simulator = WormholeSimulator(
            setup.timing, setup.topology, setup.allocation
        )
        result = simulator.run(
            setup.tau_in_for_load(0.8), invocations=16, warmup=4
        )
        assert result.extra["recoveries"] == 0

    def test_aborted_message_still_delivered(self, opposing_pair):
        """Recovery must not lose messages: every invocation completes,
        which requires every aborted flight to eventually deliver."""
        timing, topology, allocation = opposing_pair
        simulator = WormholeSimulator(timing, topology, allocation)
        result = simulator.run(tau_in=60.0, invocations=12, warmup=2)
        completions = result.completion_times
        assert all(b > a for a, b in zip(completions, completions[1:]))


def find_cycle(graph):
    """``_find_cycle`` over a plain adjacency mapping; children outside
    ``graph`` are dropped, as the recovery's waiting-holder lists are."""
    return _find_cycle(
        graph, lambda node: [child for child in graph[node] if child in graph]
    )


class TestFindCycle:
    def test_simple_cycle(self):
        graph = {1: {2}, 2: {3}, 3: {1}}
        cycle = find_cycle(graph)
        assert cycle is not None
        assert set(cycle) == {1, 2, 3}

    def test_acyclic_chain_has_no_cycle(self):
        graph = {1: {2}, 2: {3}, 3: set()}
        assert find_cycle(graph) is None

    def test_self_loop_is_a_one_node_cycle(self):
        # A flight re-requesting a link it holds (adaptive misrouting)
        # waits for itself.
        assert find_cycle({1: {1}}) == [1]
        assert find_cycle({1: {2}, 2: {2}}) == [2]

    def test_str_order_decides_between_two_children(self):
        # Children in neither insertion nor numeric order: "10" < "9", so
        # the DFS enters 10 first and finds its loop, not 9's.
        graph = {1: [9, 10], 9: [9], 10: [10]}
        assert find_cycle(graph) == [10]
        graph = {("m", 1): [("m9", 0), ("m10", 0)],
                 ("m9", 0): [("m", 1)], ("m10", 0): [("m", 1)]}
        assert find_cycle(graph) == [("m", 1), ("m10", 0)]

    def test_cycle_in_second_component(self):
        graph = {1: set(), 2: {3}, 3: {4}, 4: {2}}
        cycle = find_cycle(graph)
        assert set(cycle) == {2, 3, 4}

    def test_two_cycles_deterministic(self):
        graph = {1: {2}, 2: {1}, 3: {4}, 4: {3}}
        assert set(find_cycle(graph)) == {1, 2}

    def test_edges_to_unknown_nodes_ignored(self):
        graph = {1: {99}, 2: {1}}
        assert find_cycle(graph) is None

    def test_empty(self):
        assert find_cycle({}) is None


# -- the victim rule against the search it replaced --------------------------
#
# ``reference_find_cycle`` and ``reference_fewest_held`` are verbatim copies
# of the search that built a blocker set per visited flight and sorted every
# child list by ``str``; ``reference_victim`` is the recovery rule over them.
# The rewritten search must pick the same victim on every wait-for state.

def reference_fewest_held(waiting, keys):
    """The flight holding the fewest links (then earliest invocation, then
    name): the least transmission progress lost by aborting it."""
    _, j, name = min((len(waiting[key].held), key[1], key[0]) for key in keys)
    return (name, j)


def reference_find_cycle(graph, successors=None):
    """A cycle in a directed graph as a list of nodes, or None.

    Iterative three-color DFS; deterministic given the (insertion-ordered)
    adjacency so recovery victims are reproducible.  A node's children
    (``successors(node)``, default ``graph[node]``) are asked for on
    reaching it, and only the nodes the search reaches are coloured.
    """
    successors = successors or graph.__getitem__
    GREY, BLACK = 1, 2
    color: dict = {}  # absent = white
    for root in graph:
        if root in color:
            continue
        stack = [(root, iter(sorted(successors(root), key=str)))]
        color[root] = GREY
        path = [root]
        while stack:
            node, children = stack[-1]
            advanced = False
            for child in children:
                if child not in graph:
                    continue
                state = color.get(child)
                if state == GREY:
                    return path[path.index(child):]
                if state is None:
                    color[child] = GREY
                    path.append(child)
                    stack.append(
                        (child, iter(sorted(successors(child), key=str)))
                    )
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                path.pop()
                stack.pop()
    return None


def reference_victim(waiting, links):
    def blockers(key):
        return {
            claim.owner
            for claim in links[waiting[key].link].holders
            if claim.owner in waiting
        }

    cycle = reference_find_cycle(waiting, blockers)
    return None if cycle is None else reference_fewest_held(waiting, cycle)


def random_wait_for_state(rng):
    """Flights holding channels of a few links, some of them blocked on a
    link: ``(waiting, links)`` as the simulator's recovery sees them.

    Capacity 1-3 gives out-degrees 0-3 (2 is ``virtual_channels=2``);
    a flight blocked on a link it holds is a self-loop; holders left out
    of ``waiting`` are flights transmitting, not blocked.
    """
    env = Environment()
    capacity = rng.choice((1, 2, 3))
    links = {
        (i, i + 1): Resource(env, capacity=capacity, name=f"({i}, {i + 1})")
        for i in range(rng.randint(1, 6))
    }
    names = [f"m{i}" for i in rng.sample(range(15), rng.randint(0, 10))]
    flights = {}
    for name in names:
        j = rng.randint(0, 12)
        message = _MessageRow(name, 0, 1, 1.0, "t", f"msg {name}")
        flight = flights[(name, j)] = _Flight(message, j, 0.0)
        flight.held = []
    keys = list(flights)
    for link, resource in links.items():
        for owner in rng.sample(keys, min(rng.randint(0, capacity), len(keys))):
            flights[owner].held.append((link, resource.claim(owner)))
    waiting = {}
    for key in rng.sample(keys, rng.randint(0, len(keys))):
        flights[key].link = rng.choice(list(links))
        waiting[key] = flights[key]
    return waiting, links


class TestVictimDifferential:
    STATES = 600

    def test_same_victim_as_the_reference_search(self):
        rng = random.Random(20261018)
        seen = {"out_degree": set(), "self_loop": 0, "bystander_holder": 0,
                "empty": 0, "victims": 0, "no_cycle": 0}
        for _ in range(self.STATES):
            waiting, links = random_wait_for_state(rng)
            expected = reference_victim(waiting, links)
            got = WormholeSimulator._pick_recovery_victim(waiting, links)
            assert got == expected, sorted(waiting)
            seen["empty"] += not waiting
            seen["victims" if expected else "no_cycle"] += 1
            for key, flight in waiting.items():
                owners = [c.owner for c in links[flight.link].holders]
                seen["out_degree"].add(sum(o in waiting for o in owners))
                seen["self_loop"] += key in owners
                seen["bystander_holder"] += any(o not in waiting for o in owners)
        # The corpus reaches every case the rule has to keep.
        assert seen["out_degree"] == {0, 1, 2, 3}
        assert min(seen[k] for k in seen if k != "out_degree") >= 10, seen

    def test_plain_graphs_find_the_reference_cycle(self):
        rng = random.Random(7)
        for _ in range(self.STATES):
            nodes = rng.sample(range(20), rng.randint(0, 9))
            graph = {
                node: {rng.choice(range(22)) for _ in range(rng.randint(0, 3))}
                for node in nodes
            }
            assert find_cycle(graph) == reference_find_cycle(graph)

    def test_fewest_held_matches_the_reference(self):
        rng = random.Random(3)
        for _ in range(self.STATES):
            waiting, _ = random_wait_for_state(rng)
            if waiting:
                keys = rng.sample(list(waiting), rng.randint(1, len(waiting)))
                assert _fewest_held(waiting, keys) == reference_fewest_held(
                    waiting, keys)
