"""The wormhole simulators reproduce a corpus pinned before their rewrite.

``tests/data/wr_corpus.json`` holds, for 316 runs (the eleven
``pipeline_sim`` points and 48 fuzz seeds under the base,
``virtual_channels=2``, adaptive and store-and-forward simulators, plus a
seeded fault-injection leg), every completion time as ``float.hex``, the
recovery count, the per-link wait totals in insertion order, the fault
events and aborts or the error raised, and digests of the non-``sim``
trace.  It was written by ``tools/wr_corpus.py`` at the commit before the
simulator became one flat callback loop: any difference is a change of
the model, not of its implementation.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
CORPUS = json.loads((ROOT / "tests/data/wr_corpus.json").read_text())


def _generator():
    spec = importlib.util.spec_from_file_location(
        "wr_corpus", ROOT / "tools/wr_corpus.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def replayed():
    generator = _generator()
    return {
        case: generator._record(run, traced)
        for case, traced, run in generator.cases()
    }


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
