"""The mutation-kill gate: the determinism check must catch its corpus.

This is the ``repro.check.mutate`` discipline applied to the linter
itself — a check whose matching silently rots would keep CI green while
the invariant it guards decays.  The gate requires a >=95% kill rate
(at two different seeds, so the corpus is not template-bound) and zero
findings on the clean template.
"""

from __future__ import annotations

import pytest

from repro.lint import lint_sources
from repro.lint.selfcheck import clean_sources, kill_check, mutants

KILL_GATE = 0.95


def test_clean_template_lints_clean():
    assert lint_sources(clean_sources()).findings == ()


@pytest.mark.parametrize("seed", [0, 7])
def test_kill_rate_meets_gate(seed):
    result = kill_check(seed=seed)
    assert result.total == 22
    assert result.rate >= KILL_GATE, (
        f"killed {result.killed}/{result.total} ({result.rate:.0%}); "
        f"survivors: {list(result.survivors)}"
    )


def test_corpus_is_deterministic_per_seed():
    first = mutants(seed=3)
    second = mutants(seed=3)
    assert [(m.name, m.sources) for m in first] == [
        (m.name, m.sources) for m in second
    ]


def test_mutants_differ_from_clean():
    clean = clean_sources()
    for mutant in mutants(seed=0):
        assert mutant.sources != clean, mutant.name
