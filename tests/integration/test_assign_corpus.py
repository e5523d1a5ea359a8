"""AssignPaths reproduces its pinned corpus.

``tests/data/assign_corpus.json`` holds, for every AssignPaths attempt of
80 compiles (the 32 ``matrix_cold`` instances of seed 0 and the 48 fuzz
seeds), a SHA-256 of the ``evaluate_pool`` outputs in call order (path,
peak as ``float.hex``, witness kind, link and interval), the final
assignment, the utilisation report with its floats as ``float.hex``, and
the iteration and restart counts.  ``tools/pins.py`` writes it from the
producer this test replays, so any difference is a change of the
heuristic that a re-pin must show (docs/verification.md "Re-pinning").
"""

from __future__ import annotations

import pytest

from tests.conftest import pins

CORPUS = pins().pinned("assign_corpus")


@pytest.fixture(scope="module")
def replayed():
    return pins().produce("assign_corpus")


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
