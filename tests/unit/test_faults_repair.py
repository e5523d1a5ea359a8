"""Unit tests for the schedule-repair engine."""

import pytest

from repro.core.compiler import CompilerConfig, compile_schedule
from repro.core.verify import verify_schedule
from repro.errors import RepairInfeasibleError
from repro.faults.repair import affected_messages, repair_schedule
from tests.conftest import pins


@pytest.fixture()
def compiled(small_setup):
    """Diamond on the 3-cube, compiled at half load."""
    tau_in = small_setup.tau_in_for_load(0.5)
    routing = compile_schedule(
        small_setup.timing,
        small_setup.topology,
        small_setup.allocation,
        tau_in,
        CompilerConfig(seed=0),
    )
    return routing, small_setup


def _links_of(routing, name):
    path = routing.schedule.assignment[name]
    return {(min(u, v), max(u, v)) for u, v in zip(path, path[1:])}


class TestAffectedMessages:
    def test_hit_and_miss(self, compiled):
        routing, _ = compiled
        name = next(iter(routing.schedule.assignment))
        link = next(iter(_links_of(routing, name)))
        assert name in affected_messages(routing, frozenset({link}))
        used = set().union(
            *(_links_of(routing, n) for n in routing.schedule.assignment)
        )
        assert affected_messages(routing, frozenset()) == ()
        spare = next(
            link for link in compiled[1].topology.links if link not in used
        )
        assert affected_messages(routing, frozenset({spare})) == ()


class TestRepairSchedule:
    def test_unused_link_needs_no_repair(self, compiled):
        routing, setup = compiled
        used = set().union(
            *(_links_of(routing, n) for n in routing.schedule.assignment)
        )
        spare = next(link for link in setup.topology.links if link not in used)
        outcome = repair_schedule(
            routing, setup.timing, setup.topology, setup.allocation, [spare]
        )
        assert outcome.strategy == "none"
        assert outcome.routing is routing
        assert outcome.messages_rerouted == 0

    def test_local_repair_moves_only_affected(self, compiled):
        routing, setup = compiled
        name = next(iter(routing.schedule.assignment))
        link = next(iter(_links_of(routing, name)))
        outcome = repair_schedule(
            routing, setup.timing, setup.topology, setup.allocation, [link]
        )
        assert outcome.strategy == "local"
        assert name in outcome.affected_messages
        assert set(outcome.rerouted_messages) <= set(outcome.affected_messages)
        # Unaffected messages keep their original paths verbatim.
        for other in routing.schedule.assignment:
            if other not in outcome.affected_messages:
                assert (
                    outcome.routing.schedule.assignment[other]
                    == routing.schedule.assignment[other]
                )
        # The repaired paths avoid the dead link.
        for other in outcome.routing.schedule.assignment:
            assert link not in _links_of(outcome.routing, other)

    def test_repaired_schedule_passes_full_verification(self, compiled):
        routing, setup = compiled
        name = next(iter(routing.schedule.assignment))
        link = next(iter(_links_of(routing, name)))
        outcome = repair_schedule(
            routing, setup.timing, setup.topology, setup.allocation, [link]
        )
        report = verify_schedule(
            outcome.routing,
            setup.timing,
            outcome.residual,
            setup.allocation,
        )
        assert report.mean_normalized_throughput == pytest.approx(1.0)
        assert not report.output_inconsistency

    def test_windows_unchanged_by_local_repair(self, compiled):
        routing, setup = compiled
        name = next(iter(routing.schedule.assignment))
        link = next(iter(_links_of(routing, name)))
        outcome = repair_schedule(
            routing, setup.timing, setup.topology, setup.allocation, [link]
        )
        # Local repair reroutes within the original release/deadline
        # windows: the time-bound set is carried over, not recomputed.
        for msg, bound in routing.bounds.bounds.items():
            repaired = outcome.routing.bounds.bounds[msg]
            assert repaired.release == pytest.approx(bound.release)
            assert repaired.deadline == pytest.approx(bound.deadline)

    def test_forced_recompile(self, compiled):
        routing, setup = compiled
        name = next(iter(routing.schedule.assignment))
        link = next(iter(_links_of(routing, name)))
        outcome = repair_schedule(
            routing, setup.timing, setup.topology, setup.allocation, [link],
            allow_local=False,
        )
        assert outcome.strategy == "recompile"
        for other in outcome.routing.schedule.assignment:
            assert link not in _links_of(outcome.routing, other)
        verify_schedule(
            outcome.routing, setup.timing, outcome.residual, setup.allocation
        )

    def test_disconnection_is_infeasible(self, compiled):
        routing, setup = compiled
        # Sever every link of node 1 (hosting m1): message 'a' endpoints
        # disconnect and no strategy can help.
        cut = [(0, 1), (1, 3), (1, 5)]
        with pytest.raises(RepairInfeasibleError, match="disconnected"):
            repair_schedule(
                routing, setup.timing, setup.topology, setup.allocation, cut
            )

    def test_repair_is_deterministic(self, compiled):
        routing, setup = compiled
        name = next(iter(routing.schedule.assignment))
        link = next(iter(_links_of(routing, name)))
        a = repair_schedule(
            routing, setup.timing, setup.topology, setup.allocation, [link]
        )
        b = repair_schedule(
            routing, setup.timing, setup.topology, setup.allocation, [link]
        )
        assert a.strategy == b.strategy
        assert a.routing.schedule.assignment == b.routing.schedule.assignment

    def test_reports_cost_figures(self, compiled):
        routing, setup = compiled
        name = next(iter(routing.schedule.assignment))
        link = next(iter(_links_of(routing, name)))
        outcome = repair_schedule(
            routing, setup.timing, setup.topology, setup.allocation, [link]
        )
        assert outcome.repair_wall_ms > 0.0
        assert 0.0 < outcome.peak_utilization <= 1.0 + 1e-9


class TestPinnedLocalRepair:
    def test_six_cube_repair_is_pinned(self):
        """DVB(5) on the 6-cube at load 0.5 with three links down: local
        repair over seven affected messages, four descent moves.  The
        descent shares AssignPaths' batched candidate evaluation; the
        repaired paths and the Omega digest are the ones the
        path-at-a-time loop produced."""
        pytest.importorskip("scipy")
        outcome = pins().produce("faults.six_cube_repair")
        assert outcome == pins().pinned("faults.six_cube_repair")
        assert outcome["strategy"] == "local"
