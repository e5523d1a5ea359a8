"""The wormhole simulators reproduce their pinned corpus.

``tests/data/wr_corpus.json`` holds, for 316 runs (the eleven
``pipeline_sim`` points and 48 fuzz seeds under the base,
``virtual_channels=2``, adaptive and store-and-forward simulators, plus a
seeded fault-injection leg), every completion time as ``float.hex``, the
recovery count, the per-link wait totals in insertion order, the fault
events and aborts or the error raised, and digests of the non-``sim``
trace.  ``tools/pins.py`` writes it from the producer this test replays,
so any difference is a change of the model that a re-pin must show
(docs/verification.md "Re-pinning").
"""

from __future__ import annotations

import pytest

from tests.conftest import pins

CORPUS = pins().pinned("wr_corpus")


@pytest.fixture(scope="module")
def replayed():
    return pins().produce("wr_corpus")


def test_corpus_covers_every_variant_and_outcome():
    assert len(CORPUS) == 316
    errors = [r["error"] for r in CORPUS.values() if "error" in r]
    assert any("permanently failed links" in text for _, text in errors)
    assert any(r.get("fault_aborts") for r in CORPUS.values())
    assert any(r.get("recoveries") for r in CORPUS.values())


@pytest.mark.parametrize("family", ["pipeline", "fuzz", "faults"])
def test_every_run_matches_the_pinned_corpus(replayed, family):
    cases = [case for case in CORPUS if case.startswith(family + "/")]
    assert cases
    assert {case for case in replayed if case.startswith(family + "/")} == set(cases)
    for case in cases:
        assert replayed[case] == CORPUS[case], case
