"""Seeded-mutation suite: the analyzer must kill injected corruptions.

A detector that never fires on clean schedules is only useful if it
fires on broken ones.  Each test corrupts a known-good compiled schedule
with one seeded mutation from :mod:`repro.check.mutate` and asserts the
analyzer reports at least one error; the aggregate test requires a
>= 95% kill rate over the whole corpus (ISSUE 4 acceptance criterion).
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.check import MUTATIONS, analyze_schedule, mutate_schedule
from repro.check.mutate import MutationSkipped, retime_command
from repro.core.compiler import CompilerConfig, compile_schedule
from repro.core.executor import ScheduledRoutingExecutor
from repro.core.switching import (
    AP_PORT,
    CommunicationSchedule,
    NodeSchedule,
    SwitchCommand,
)
from repro.errors import ScheduleValidationError
from repro.experiments import standard_setup
from repro.tfg import TFGTiming, dvb_tfg
from repro.tfg.synth import chain_tfg
from repro.topology import make_topology
from tests.conftest import pins

CONFIG = CompilerConfig(seed=0, max_paths=16, max_restarts=2, retries=1)

#: Seeds per mutation operator in the corpus.
SEEDS = range(8)

#: ISSUE 4 acceptance criterion.
REQUIRED_KILL_RATE = 0.95


@pytest.fixture(scope="module")
def compiled(cube3):
    """Multi-hop compilation: paths of 2-3 hops give every mutation a
    site (reroute/truncate need intermediate nodes)."""
    timing = TFGTiming(chain_tfg(4, 400, 1280), 128.0, speeds=40.0)
    allocation = {"t0": 0, "t1": 3, "t2": 5, "t3": 6}
    routing = compile_schedule(timing, cube3, allocation, 40.0, CONFIG)
    return routing, timing, cube3, allocation


def analyze(schedule, compiled):
    _, timing, topology, allocation = compiled
    return analyze_schedule(
        schedule, topology, timing=timing, allocation=allocation
    )


class TestMutationKill:
    def test_unmutated_baseline_is_clean(self, compiled):
        routing = compiled[0]
        assert analyze(routing.schedule, compiled).ok

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_each_operator_is_killed(self, compiled, mutation):
        routing = compiled[0]
        applied = 0
        killed = 0
        for seed in SEEDS:
            try:
                mutated = mutate_schedule(
                    routing.schedule, seed, mutation=mutation
                )
            except MutationSkipped:
                continue
            applied += 1
            if not analyze(mutated.schedule, compiled).ok:
                killed += 1
        if applied == 0:
            pytest.skip(f"{mutation}: no site on this schedule")
        assert killed == applied, (
            f"{mutation}: {applied - killed} of {applied} corruptions "
            "survived the analyzer"
        )

    def test_corpus_kill_rate(self, compiled):
        routing = compiled[0]
        applied = 0
        killed = 0
        survivors = []
        for mutation in sorted(MUTATIONS):
            for seed in SEEDS:
                try:
                    mutated = mutate_schedule(
                        routing.schedule, seed, mutation=mutation
                    )
                except MutationSkipped:
                    continue
                applied += 1
                if analyze(mutated.schedule, compiled).ok:
                    survivors.append((mutation, seed, mutated.detail))
                else:
                    killed += 1
        assert applied >= 40, "corpus too small to be meaningful"
        assert killed / applied >= REQUIRED_KILL_RATE, (
            f"kill rate {killed}/{applied} below "
            f"{REQUIRED_KILL_RATE:.0%}; survivors: {survivors}"
        )

    def test_mutations_do_not_touch_the_original(self, compiled):
        routing = compiled[0]
        before = {
            name: slots for name, slots in routing.schedule.slots.items()
        }
        for mutation in sorted(MUTATIONS):
            try:
                mutate_schedule(routing.schedule, 0, mutation=mutation)
            except MutationSkipped:
                continue
        assert routing.schedule.slots == before
        assert analyze(routing.schedule, compiled).ok

    def test_required_operators_present(self):
        # The operators named by the issue must exist in the registry.
        for required in (
            "shift-slot", "swap-crossbar-ports", "delete-command",
            "overrun-window-eps",
        ):
            assert required in MUTATIONS

    def test_seeded_mutation_is_deterministic(self, compiled):
        routing = compiled[0]
        a = mutate_schedule(routing.schedule, 3)
        b = mutate_schedule(routing.schedule, 3)
        assert a.mutation == b.mutation
        assert a.detail == b.detail
        assert a.schedule.slots == b.schedule.slots


class TestRetimeCommand:
    def omega(self, *times):
        return CommunicationSchedule(20.0, slots={}, node_schedules={
            node: NodeSchedule(node, (SwitchCommand(t, 1.0, AP_PORT, 1, "m"),))
            for node, t in enumerate(times)
        })

    def test_retime_changes_omega_and_reports_the_shift(self):
        """A command already at t = 0 cannot move earlier: it is never
        drawn, and the detail names the shift the command took."""
        original = self.omega(0.0, 0.0, 0.0, 0.5)
        for seed in range(8):
            mutated = mutate_schedule(original, seed, "retime-command")
            assert mutated.schedule.node_schedules != original.node_schedules
            (moved,) = mutated.schedule.node_schedules[3].commands
            assert mutated.detail == (
                f"node 3 command 0 retimed by {moved.time - 0.5:+.4f}"
            )

    def test_no_command_to_retime_skips(self):
        with pytest.raises(MutationSkipped):
            retime_command(self.omega(0.0, 0.0), random.Random(0))


#: Operators whose every mutant is a wrong Ω; ``retime-command`` only
#: draws commands that move.
OMEGA_MUTATIONS = (
    "swap-crossbar-ports", "delete-command", "truncate-path", "reroute-hop",
    "retime-command",
)


@pytest.mark.parametrize("topology,load", [("hypercube6", 0.3), ("torus8x8", 0.2)])
def test_executor_alone_kills_every_omega_mutant(topology, load):
    """The executor replays Ω, not the slots: on DVB(5) schedules it
    rejects every corrupted command memory with a typed error."""
    setup = standard_setup(dvb_tfg(5), make_topology(topology), 128.0)
    routing = compile_schedule(
        setup.timing, setup.topology, setup.allocation,
        setup.tau_in_for_load(load), CONFIG,
    )
    for mutation in OMEGA_MUTATIONS:
        for seed in range(4):
            mutant = mutate_schedule(routing.schedule, seed, mutation)
            with pytest.raises(ScheduleValidationError):
                ScheduledRoutingExecutor(
                    dataclasses.replace(routing, schedule=mutant.schedule),
                    setup.timing, setup.topology, setup.allocation,
                ).run(invocations=12, warmup=2)


def test_kill_matrix_matches_the_pin():
    """The per-operator, per-checker kill counts on the ``pipeline_sim``
    schedules are pinned; the executor on its own kills every Ω mutant."""
    matrix = pins().produce("check.kill_matrix")
    assert matrix == pins().pinned("check.kill_matrix")
    for mutation in OMEGA_MUTATIONS:
        assert matrix[mutation]["executor"] == matrix[mutation]["applied"] > 0
