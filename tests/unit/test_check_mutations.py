"""Seeded-mutation suite: each checker must kill the corruptions of the
input it owns.

A detector that never fires on clean schedules is only useful if it
fires on broken ones.  Each test corrupts a known-good compiled schedule
with one seeded mutation from :mod:`repro.check.mutate` and asserts the
checker that owns the corrupted input rejects it: the analyzer a slot
mutant, the executor's replay a corrupted command memory.  The aggregate
test requires a >= 95% analyzer kill rate over the slot operators.
"""

from __future__ import annotations

import random

import pytest

from repro.check import MUTATIONS, analyze_schedule, mutate_schedule
from repro.check.mutate import (
    COMMAND_MUTATIONS,
    SLOT_MUTATIONS,
    MutationSkipped,
    retime_command,
)
from repro.core.compiler import CompilerConfig, compile_schedule
from repro.core.switching import AP_PORT, NodeSchedule, SwitchCommand
from repro.errors import ReproError, ScheduleValidationError
from repro.experiments import standard_setup
from repro.tfg import TFGTiming, dvb_tfg
from repro.tfg.synth import chain_tfg
from repro.topology import make_topology
from repro.units import EPS
from tests.conftest import pins

CONFIG = CompilerConfig(seed=0, max_paths=16, max_restarts=2, retries=1)

#: Seeds per mutation operator in the corpus.
SEEDS = range(8)

#: The analyzer's least kill rate over the slot operators' corpus.
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


def killed_by_owner(mutated, compiled):
    """Whether the checker owning the mutated input rejects it: the
    executor a command mutant, the analyzer a slot mutant."""
    if mutated.mutation in COMMAND_MUTATIONS:
        routing, *problem = compiled
        try:
            pins().replay_omega(routing, mutated.node_schedules, *problem)
        except ReproError:
            return True
        return False
    return not analyze(mutated.schedule, compiled).ok


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
            killed += killed_by_owner(mutated, compiled)
        if applied == 0:
            pytest.skip(f"{mutation}: no site on this schedule")
        assert killed == applied, (
            f"{mutation}: {applied - killed} of {applied} corruptions "
            "survived the checker that owns their input"
        )

    def test_corpus_kill_rate(self, compiled):
        routing = compiled[0]
        applied = 0
        killed = 0
        survivors = []
        for mutation in sorted(SLOT_MUTATIONS):
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
        omega = dict(routing.schedule.node_schedules)
        for mutation in sorted(MUTATIONS):
            try:
                mutate_schedule(routing.schedule, 0, mutation=mutation)
            except MutationSkipped:
                continue
        assert routing.schedule.slots == before
        assert routing.schedule.node_schedules == omega
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
        assert a.node_schedules == b.node_schedules


class TestRetimeCommand:
    def memory(self, *times):
        """A command memory of one command per node, at these times."""
        return {
            node: NodeSchedule(node, (SwitchCommand(t, 1.0, AP_PORT, 1, "m"),))
            for node, t in enumerate(times)
        }

    def test_retime_changes_omega_and_reports_the_shift(self):
        """A command already at t = 0 cannot move earlier: it is never
        drawn, and the detail names the shift the command took."""
        original = self.memory(0.0, 0.0, 0.0, 0.5)
        for seed in range(8):
            memory = dict(original)
            detail = retime_command(memory, 20.0, random.Random(seed))
            assert memory != original
            (moved,) = memory[3].commands
            assert detail == (
                f"node 3 command 0 retimed by {moved.time - 0.5:+.4f}"
            )

    def test_no_command_to_retime_skips(self):
        with pytest.raises(MutationSkipped):
            retime_command(self.memory(0.0, 0.0), 20.0, random.Random(0))


#: Operators whose every mutant is a wrong Ω; ``retime-command`` only
#: draws commands that move.
OMEGA_MUTATIONS = (
    "swap-crossbar-ports", "delete-command", "truncate-path", "reroute-hop",
    "retime-command",
)


#: DVB(5) points of the executor's own kill tests: (topology, load).
EXECUTOR_POINTS = [("hypercube6", 0.3), ("torus8x8", 0.2)]


def _dvb5_routing(topology, load):
    setup = standard_setup(dvb_tfg(5), make_topology(topology), 128.0)
    routing = compile_schedule(
        setup.timing, setup.topology, setup.allocation,
        setup.tau_in_for_load(load), CONFIG,
    )
    return routing, setup.timing, setup.topology, setup.allocation


def _executor_verdict(compiled, node_schedules, invocations):
    """``None`` when the executor passes the command memory
    ``node_schedules``, else its error type."""
    routing, *problem = compiled
    try:
        pins().replay_omega(routing, node_schedules, *problem, invocations)
    except ReproError as error:
        return type(error)
    return None


@pytest.mark.parametrize("invocations", [6, 12, 24])
@pytest.mark.parametrize("topology,load", EXECUTOR_POINTS)
def test_executor_alone_kills_every_omega_mutant(topology, load, invocations):
    """The executor replays Ω, not the slots: on DVB(5) schedules it
    rejects every corrupted command memory with a typed error, however
    many invocations it is asked for."""
    compiled = _dvb5_routing(topology, load)
    for mutation in OMEGA_MUTATIONS:
        for seed in range(4):
            mutant = mutate_schedule(compiled[0].schedule, seed, mutation)
            verdict = _executor_verdict(
                compiled, mutant.node_schedules, invocations
            )
            assert verdict is not None
            assert issubclass(verdict, ScheduleValidationError)


#: hypercube6 @ 0.9 adds a ``shift-slot`` mutant (seed 6) whose contention
#: a replay of only the first 6 invocations does not reach.
@pytest.mark.parametrize(
    "topology,load", EXECUTOR_POINTS + [("hypercube6", 0.9)]
)
def test_executor_verdict_does_not_depend_on_invocations(topology, load):
    """The executor proves every invocation offset whatever the count
    asked: on window mutants its verdict and error type are the same at
    6, 12 and 24 invocations."""
    compiled = _dvb5_routing(topology, load)
    for mutation in ("shift-slot", "overrun-window-eps"):
        for seed in range(8):
            try:
                mutant = mutate_schedule(compiled[0].schedule, seed, mutation)
            except MutationSkipped:
                continue
            verdicts = {
                n: _executor_verdict(compiled, mutant.node_schedules, n)
                for n in (6, 12, 24)
            }
            assert len(set(verdicts.values())) == 1, (
                mutation, seed, mutant.detail, verdicts,
            )


def test_kill_matrix_matches_the_pin():
    """The per-operator, per-checker kill counts on the ``pipeline_sim``
    schedules are pinned; the executor on its own kills every Ω mutant."""
    matrix = pins().produce("check.kill_matrix")
    assert matrix == pins().pinned("check.kill_matrix")
    for mutation in OMEGA_MUTATIONS:
        assert matrix[mutation]["executor"] == matrix[mutation]["applied"] > 0


@pytest.fixture(scope="module")
def kill_corpus():
    """The ``check.kill_matrix`` slot mutants, each with its analyzer
    report and ``validate()``'s verdict."""
    corpus = []
    for operator, mutated, _, (timing, topology, allocation) in (
        pins().kill_corpus()
    ):
        if operator in COMMAND_MUTATIONS:
            continue
        mutant = mutated.schedule
        report = analyze_schedule(
            mutant, topology, timing=timing, allocation=allocation
        )
        try:
            mutant.validate()
            rejected = False
        except ReproError:
            rejected = True
        corpus.append((operator, mutant, topology, report, rejected))
    return corpus


def test_every_validate_kill_is_an_analyzer_kill(kill_corpus):
    """``verify_schedule`` runs no ``validate()``: on the kill-matrix
    corpus the analyzer rejects every mutant ``validate()`` rejects."""
    missed = [
        (operator, report.summary())
        for operator, _, _, report, rejected in kill_corpus
        if rejected and report.ok
    ]
    assert not missed


def _hops(path):
    return {(min(u, v), max(u, v)) for u, v in zip(path, path[1:])}


def _shared_link_overlaps(schedule):
    """Links two slots of different messages hold at once, by brute
    force over the slot pairs of each link on the circular frame: the
    contention a port conflict or a hold-and-wait would also show."""
    tau_in = schedule.tau_in

    def segments(slot):
        if slot.end <= tau_in:
            return [(slot.start, slot.end)]
        return [(slot.start, tau_in), (0.0, slot.end - tau_in)]

    by_link = {}
    for slot in schedule.all_slots():
        for link in _hops(slot.path):
            by_link.setdefault(link, []).append(slot)
    return {
        link
        for link, slots in by_link.items()
        for i, a in enumerate(slots)
        for b in slots[i + 1:]
        if a.message != b.message and any(
            min(ae, be) - max(as_, bs) > 2 * EPS
            for as_, ae in segments(a) for bs, be in segments(b)
        )
    }


def test_link_and_path_families_cover_ports_and_claims(kill_corpus):
    """Each transmission holds its whole path for its whole slot, so a
    crossbar port conflict or a hold-and-wait is a link overlap, and a
    port that is no channel (or a port looped to itself) is a broken
    path.  On every mutant of the corpus: each link two messages hold at
    once is a ``link-overlap`` finding, and each slot hop that is no
    topology link, or a slot path revisiting a node, is a ``path``
    finding."""
    path_codes = {
        "path-missing", "path-revisits-node", "path-discontinuous",
        "path-mismatch", "buffering-violation",
    }
    for operator, mutant, topology, report, _ in kill_corpus:
        flagged = {f.link for f in report.errors if f.code == "link-overlap"}
        assert _shared_link_overlaps(mutant) <= flagged, operator
        links = set(topology.links)
        broken = any(
            len(set(slot.path)) != len(slot.path)
            or not _hops(slot.path) <= links
            for slot in mutant.all_slots()
        )
        if broken:
            assert path_codes & report.counts().keys(), operator
