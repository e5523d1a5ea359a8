"""AssignPaths reproduces a corpus pinned before its evaluator's rewrite.

``tests/data/assign_corpus.json`` holds, for every AssignPaths attempt of
80 compiles (the 32 ``matrix_cold`` instances of seed 0 and the 48 fuzz
seeds), a SHA-256 of the ``evaluate_pool`` outputs in call order (path,
peak as ``float.hex``, witness kind, link and interval), the final
assignment, the utilisation report with its floats as ``float.hex``, and
the iteration and restart counts.  It was written by
``tools/assign_corpus.py`` at the commit before candidate evaluation was
restricted to the links a reroute touches: any difference is a change of
the heuristic, not of its implementation.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
CORPUS = json.loads((ROOT / "tests/data/assign_corpus.json").read_text())


def _generator():
    spec = importlib.util.spec_from_file_location(
        "assign_corpus", ROOT / "tools/assign_corpus.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def replayed():
    generator = _generator()
    return {
        case: generator.record(settings, problem)
        for case, settings, problem in generator.cases()
    }


def test_corpus_covers_retries_and_verdicts():
    assert len(CORPUS) == 80
    verdicts = {record["verdict"] for record in CORPUS.values()}
    assert {"feasible", "UtilizationExceededError"} <= verdicts
    assert any(len(record["attempts"]) > 1 for record in CORPUS.values())
    assert any(
        attempt["report"]["witness_kind"] == "spot"
        for record in CORPUS.values()
        for attempt in record["attempts"]
    )


@pytest.mark.parametrize("family", ["matrix", "fuzz"])
def test_every_attempt_matches_the_pinned_corpus(replayed, family):
    cases = [case for case in CORPUS if case.startswith(family + "/")]
    assert cases
    assert {c for c in replayed if c.startswith(family + "/")} == set(cases)
    for case in cases:
        assert replayed[case] == CORPUS[case], case
