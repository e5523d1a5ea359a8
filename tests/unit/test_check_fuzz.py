"""Unit tests for the differential fuzz harness (`repro.check.fuzz`)."""

from __future__ import annotations

import json

from repro.cache.store import routing_to_entry
from repro.check import FuzzPoint, run_fuzz
from repro.check.fuzz import (
    PointOutcome,
    _compile,
    check_point,
    determinism_inputs,
    determinism_leg,
    shrink_point,
    write_reproducer,
)
from repro.solvers import have_scipy


class TestFuzzPoint:
    def test_fully_determined_by_seed(self):
        assert FuzzPoint.from_seed(7) == FuzzPoint.from_seed(7)
        points = {FuzzPoint.from_seed(s) for s in range(16)}
        assert len(points) > 1  # the corpus actually varies

    def test_build_is_deterministic(self):
        a_timing, a_topo, a_alloc, a_tau = FuzzPoint.from_seed(3).build()
        b_timing, b_topo, b_alloc, b_tau = FuzzPoint.from_seed(3).build()
        assert a_alloc == b_alloc
        assert a_tau == b_tau
        assert a_topo.name == b_topo.name
        assert [m.name for m in a_timing.tfg.messages] == [
            m.name for m in b_timing.tfg.messages
        ]

    def test_topology_hosts_the_tasks(self):
        for seed in range(12):
            point = FuzzPoint.from_seed(seed)
            timing, topology, allocation, tau_in = point.build()
            assert topology.num_nodes >= timing.tfg.num_tasks
            assert len(set(allocation.values())) == len(allocation)
            assert tau_in >= timing.tau_c
            # bandwidth was derived so every window fits
            assert timing.tau_m <= timing.message_window

    def test_round_trips_through_dict(self):
        point = FuzzPoint.from_seed(11)
        assert FuzzPoint(**point.to_dict()) == point


class TestCheckPoint:
    def test_small_corpus_has_no_disagreements(self):
        report = run_fuzz(range(4))
        assert report.ok
        assert len(report.outcomes) == 4
        assert report.reproducers == []
        for outcome in report.outcomes:
            assert outcome.verdict in ("feasible", "infeasible")
            assert "reference" in outcome.backends
        assert "0 disagreement(s)" in report.summary()

    def test_progress_callback_sees_every_seed(self):
        lines = []
        report = run_fuzz(range(3), progress=lines.append)
        assert len(lines) == 3
        assert report.ok

    def test_check_point_is_repeatable(self):
        point = FuzzPoint.from_seed(0)
        assert check_point(point).verdict == check_point(point).verdict


class TestDeltaDifferential:
    def test_perturbation_is_deterministic_and_distinct(self):
        from repro.check.fuzz import _perturb

        point = FuzzPoint.from_seed(0)
        inputs = point.build()
        first = _perturb(point, inputs)
        second = _perturb(point, inputs)
        assert first is not None and second is not None
        timing, topology, allocation, tau_in = inputs
        p_timing, p_topology, p_allocation, p_tau = first
        # Same perturbation both times.
        assert [
            (m.name, m.size_bytes) for m in p_timing.tfg.messages
        ] == [(m.name, m.size_bytes) for m in second[0].tfg.messages]
        assert p_topology.name == second[1].name
        # ...and actually different from the original instance.
        assert (
            [(m.name, m.size_bytes) for m in p_timing.tfg.messages]
            != [(m.name, m.size_bytes) for m in timing.tfg.messages]
            or set(p_topology.links) != set(topology.links)
            or p_tau != tau_in
        )

    def test_every_perturbation_kind_applies_somewhere(self):
        from repro.check.fuzz import _PERTURBATIONS, _perturb

        kinds = set()
        for seed in range(6):
            point = FuzzPoint.from_seed(seed)
            inputs = point.build()
            perturbed = _perturb(point, inputs)
            assert perturbed is not None
            for kind in range(point.seed % 3, point.seed % 3 + 3):
                if _PERTURBATIONS[kind % 3](point, inputs) is not None:
                    kinds.add(kind % 3)
                    break
        assert len(kinds) > 1  # the corpus exercises several kinds

    def test_delta_recompile_matches_cold(self, tmp_path):
        from repro.check.fuzz import _check_delta

        for seed in (0, 1):  # one feasible, one infeasible point
            point = FuzzPoint.from_seed(seed)
            disagreements: list[str] = []
            _check_delta(
                point, "reference", point.build(), tmp_path, disagreements
            )
            assert disagreements == []


class TestDeterminismLeg:
    def test_two_processes_emit_the_same_bytes(self):
        # Twelve seeds cold + delta, the co-located input and every
        # served request, under two hash seeds, clocks and RNG states.
        assert determinism_leg(range(12)) == {}

    def test_every_serialised_order_is_exercised(self):
        """Each list an entry serialises has >= 2 members on some input
        the leg compiles, so an order taken from a set or a hash-ordered
        dict would reach the bytes it compares."""
        backend = "highs" if have_scipy() else "reference"
        lengths: dict[str, list[int]] = {
            "subsets": [], "local_messages": [], "cells": []
        }
        for _label, _point, inputs in determinism_inputs(range(12)):
            verdict, routing = _compile(inputs, backend)
            if verdict != "feasible":
                continue
            entry = routing_to_entry(routing)
            lengths["subsets"] += map(len, entry["subsets"])
            lengths["local_messages"].append(len(entry["local_messages"]))
            lengths["cells"] += (len(a["cells"]) for a in entry["allocations"])
        assert all(max(seen) >= 2 for seen in lengths.values()), lengths


class TestReproducers:
    def failing_outcome(self):
        outcome = PointOutcome(
            point=FuzzPoint.from_seed(99), verdict="feasible",
            backends=("reference",),
        )
        outcome.disagreements.append("seed 99: synthetic disagreement")
        return outcome

    def test_write_reproducer_format(self, tmp_path):
        path = write_reproducer(self.failing_outcome(), tmp_path)
        assert path.name == "fuzz-99.json"
        payload = json.loads(path.read_text())
        assert payload["format"] == "repro.fuzz-reproducer/1"
        assert payload["point"] == FuzzPoint.from_seed(99).to_dict()
        assert payload["disagreements"] == [
            "seed 99: synthetic disagreement"
        ]
        # the point is reconstructible from the file alone
        assert FuzzPoint(**payload["point"]) == FuzzPoint.from_seed(99)

    def test_shrink_returns_original_when_healthy(self):
        point = FuzzPoint.from_seed(0)
        assert shrink_point(point, attempts=2) == point

    def test_forced_disagreement_writes_reproducer(
        self, tmp_path, monkeypatch
    ):
        import repro.check.fuzz as fuzz_module

        def broken_verify(point, backend, inputs, routing, out):
            out.append(f"seed {point.seed} [{backend}]: forced failure")

        monkeypatch.setattr(
            fuzz_module, "_verify_feasible", broken_verify
        )
        # seed 0 is feasible, so the forced failure must trigger.
        report = run_fuzz([0], out_dir=tmp_path)
        assert not report.ok
        assert len(report.reproducers) == 1
        assert report.reproducers[0].exists()
